(** The operation catalog: one record per Tensor operation, bundling shape
    inference, cost metadata and the reference kernel, plus each
    differentiable op's derivative ({!Vjp}).

    Both accelerated runtimes consume this catalog — the eager runtime
    (§3.2) dispatches each record as one kernel the moment the user calls the
    op; the lazy runtime (§3.3) records it into a trace node and defers
    execution to the XLA-style compiler. Keeping one catalog guarantees the
    two backends agree exactly on semantics, shapes, and declared cost.

    An op's identity is its {!kind}: the operation together with every
    parameter that affects its result. Trace keys, CSE and printing are all
    derived from it, and {!of_kind} re-derives the rest of the record from
    it, so HLO validation ([S4o_xla.Hlo.violations]) needs no shape rules
    of its own. *)

open S4o_tensor
module Op_info = S4o_device.Op_info

type kind =
  | Add
  | Sub
  | Mul
  | Div
  | Relu_grad
  | Neg
  | Exp
  | Log
  | Sqrt
  | Relu
  | Sigmoid
  | Tanh
  | Softmax
  | Log_softmax
  | Scale of float
  | Add_scalar of float
  | Reshape of Shape.t
  | Transpose
  | Broadcast_to of Shape.t
  | Unbroadcast of Shape.t
  | Sum_axes of { axes : int list; keep_dims : bool }
  | Sum_all
  | Mean_all
  | Matmul
  | Batch_matmul
  | Batch_transpose
  | Conv2d of { stride : int * int; padding : Convolution.padding }
  | Conv2d_backward_input of {
      stride : int * int;
      padding : Convolution.padding;
      input_shape : Shape.t;
    }
  | Conv2d_backward_filter of {
      stride : int * int;
      padding : Convolution.padding;
      filter_shape : Shape.t;
    }
  | Avg_pool2d of { size : int * int; stride : int * int }
  | Avg_pool2d_backward of {
      size : int * int;
      stride : int * int;
      input_shape : Shape.t;
    }
  | Max_pool2d of { size : int * int; stride : int * int }
  | Max_pool2d_backward of { size : int * int; stride : int * int }

type op = {
  kind : kind;
  out_shape : Shape.t;
  info : Op_info.t;
  kernel : Dense.t array -> Dense.t;
}

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Relu_grad -> "relu_grad"
  | Neg -> "neg"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Softmax -> "softmax"
  | Log_softmax -> "log_softmax"
  | Scale _ -> "scale"
  | Add_scalar _ -> "add_scalar"
  | Reshape _ -> "reshape"
  | Transpose -> "transpose"
  | Broadcast_to _ -> "broadcast"
  | Unbroadcast _ -> "unbroadcast"
  | Sum_axes _ -> "sum_axes"
  | Sum_all -> "sum_all"
  | Mean_all -> "mean_all"
  | Matmul -> "matmul"
  | Batch_matmul -> "batch_matmul"
  | Batch_transpose -> "batch_transpose"
  | Conv2d _ -> "conv2d"
  | Conv2d_backward_input _ -> "conv2d_backward_input"
  | Conv2d_backward_filter _ -> "conv2d_backward_filter"
  | Avg_pool2d _ -> "avg_pool2d"
  | Avg_pool2d_backward _ -> "avg_pool2d_backward"
  | Max_pool2d _ -> "max_pool2d"
  | Max_pool2d_backward _ -> "max_pool2d_backward"

(** The kind's parameters as text ([""] when it has none). Floats print
    with [%.17g], so distinct constants never print alike. *)
let params_to_string kind =
  let pair (a, b) = Printf.sprintf "%dx%d" a b in
  let conv stride (padding : Convolution.padding) =
    Printf.sprintf "stride=%s;pad=%s" (pair stride)
      (match padding with Same -> "same" | Valid -> "valid")
  in
  let pool size stride = Printf.sprintf "size=%s;stride=%s" (pair size) (pair stride) in
  match kind with
  | Scale c | Add_scalar c -> Printf.sprintf "c=%.17g" c
  | Reshape s | Broadcast_to s | Unbroadcast s -> Shape.to_string s
  | Sum_axes { axes; keep_dims } ->
      Printf.sprintf "axes=%s%s"
        (String.concat "," (List.map string_of_int axes))
        (if keep_dims then ";keep" else "")
  | Conv2d { stride; padding } -> conv stride padding
  | Conv2d_backward_input { stride; padding; input_shape } ->
      conv stride padding ^ ";input=" ^ Shape.to_string input_shape
  | Conv2d_backward_filter { stride; padding; filter_shape } ->
      conv stride padding ^ ";filter=" ^ Shape.to_string filter_shape
  | Avg_pool2d { size; stride }
  | Max_pool2d { size; stride }
  | Max_pool2d_backward { size; stride } ->
      pool size stride
  | Avg_pool2d_backward { size; stride; input_shape } ->
      pool size stride ^ ";input=" ^ Shape.to_string input_shape
  | Add | Sub | Mul | Div | Relu_grad | Neg | Exp | Log | Sqrt | Relu
  | Sigmoid | Tanh | Softmax | Log_softmax | Transpose | Sum_all | Mean_all
  | Matmul | Batch_matmul | Batch_transpose ->
      ""

(* Float parameters by bit pattern: structural comparison alone would equate
   [0.0] with [-0.0]. *)
let float_bits = function
  | Scale c | Add_scalar c -> Int64.bits_of_float c
  | _ -> 0L

(** Same op with the same parameters. Floats compare by bit pattern, so
    distinct constants, [0.0] and [-0.0] included, are never equal. *)
let equal a b = compare a b = 0 && Int64.equal (float_bits a) (float_bits b)

(** A hash consistent with {!equal}. *)
let hash kind = Hashtbl.hash (kind, float_bits kind)

let fail fmt = Format.kasprintf (fun s -> raise (Shape.Shape_error s)) fmt
let arg1 k = fun (args : Dense.t array) -> k args.(0)
let arg2 k = fun (args : Dense.t array) -> k args.(0) args.(1)

(** {1 Elementwise} *)

let binary kind f (a : Shape.t) (b : Shape.t) =
  let out_shape = Shape.broadcast a b in
  {
    kind;
    out_shape;
    info = Op_info.elementwise (name kind) ~inputs:[ a; b ] ~output:out_shape ();
    kernel = arg2 f;
  }

let unary ?(flops_per_elem = 1) kind f (a : Shape.t) =
  {
    kind;
    out_shape = a;
    info = Op_info.elementwise (name kind) ~inputs:[ a ] ~output:a ~flops_per_elem ();
    kernel = arg1 f;
  }

let add = binary Add Dense.add
let sub = binary Sub Dense.sub
let mul = binary Mul Dense.mul
let div = binary Div Dense.div
let relu_grad = binary Relu_grad Dense.relu_grad
let neg = unary Neg Dense.neg
let exp = unary ~flops_per_elem:4 Exp Dense.exp
let log = unary ~flops_per_elem:4 Log Dense.log
let sqrt = unary ~flops_per_elem:2 Sqrt Dense.sqrt
let relu = unary Relu Dense.relu
let sigmoid = unary ~flops_per_elem:6 Sigmoid Dense.sigmoid
let tanh = unary ~flops_per_elem:6 Tanh Dense.tanh

(* Row-wise over a [batch; classes] matrix. *)
let rows kind f (a : Shape.t) =
  if Shape.rank a <> 2 then fail "%s: rank 2 only, has %s" (name kind) (Shape.to_string a);
  unary ~flops_per_elem:5 kind f a

let softmax = rows Softmax Dense.softmax
let log_softmax = rows Log_softmax Dense.log_softmax
let scale c = unary (Scale c) (Dense.scale c)
let add_scalar c = unary (Add_scalar c) (Dense.add_scalar c)

(** {1 Shape manipulation} *)

let data_movement kind (a : Shape.t) out_shape kernel =
  {
    kind;
    out_shape;
    info = Op_info.data_movement (name kind) ~input:a ~output:out_shape;
    kernel = arg1 kernel;
  }

let reshape (a : Shape.t) (target : Shape.t) =
  if not (Shape.can_reshape a target) then
    fail "reshape: cannot reshape %s to %s" (Shape.to_string a) (Shape.to_string target);
  data_movement (Reshape target) a target (fun t -> Dense.reshape t target)

let transpose (a : Shape.t) =
  if Shape.rank a <> 2 then fail "transpose: rank 2 only, has %s" (Shape.to_string a);
  data_movement Transpose a [| a.(1); a.(0) |] Dense.transpose

(* [small] must broadcast to exactly [big]. *)
let check_broadcasts ctx (small : Shape.t) (big : Shape.t) =
  match Shape.broadcast small big with
  | s when Shape.equal s big -> ()
  | _ | (exception Shape.Shape_error _) ->
      fail "%s: %s does not broadcast to %s" ctx (Shape.to_string small)
        (Shape.to_string big)

let broadcast_to (a : Shape.t) (target : Shape.t) =
  check_broadcasts "broadcast_to" a target;
  data_movement (Broadcast_to target) a target (fun t -> Dense.broadcast_to t target)

let batch_transpose (a : Shape.t) =
  if Shape.rank a <> 3 then
    fail "batch_transpose: rank 3 only, has %s" (Shape.to_string a);
  data_movement Batch_transpose a [| a.(0); a.(2); a.(1) |] Dense.batch_transpose

(** {1 Reductions} *)

let reduction kind (a : Shape.t) out_shape kernel =
  {
    kind;
    out_shape;
    info = Op_info.reduction (name kind) ~input:a ~output:out_shape;
    kernel = arg1 kernel;
  }

let unbroadcast (a : Shape.t) (target : Shape.t) =
  check_broadcasts "unbroadcast" target a;
  reduction (Unbroadcast target) a target (fun t -> Dense.unbroadcast t target)

let sum_axes ?(keep_dims = false) (a : Shape.t) axes =
  reduction (Sum_axes { axes; keep_dims }) a (Shape.reduce_axes ~keep_dims a axes)
    (fun t -> Dense.sum_axes ~keep_dims t axes)

let sum_all a = reduction Sum_all a [||] (fun t -> Dense.scalar (Dense.sum t))
let mean_all a = reduction Mean_all a [||] (fun t -> Dense.scalar (Dense.mean t))

(** {1 Linear algebra and NN kernels} *)

let matmul (a : Shape.t) (b : Shape.t) =
  if Shape.rank a <> 2 || Shape.rank b <> 2 || a.(1) <> b.(0) then
    fail "matmul: %s x %s" (Shape.to_string a) (Shape.to_string b);
  let m = a.(0) and k = a.(1) and n = b.(1) in
  {
    kind = Matmul;
    out_shape = [| m; n |];
    info = Op_info.matmul ~m ~k ~n;
    kernel = arg2 Dense.matmul;
  }

let batch_matmul (a : Shape.t) (b : Shape.t) =
  if Shape.rank a <> 3 || Shape.rank b <> 3 || a.(0) <> b.(0) || a.(2) <> b.(1)
  then fail "batch_matmul: %s x %s" (Shape.to_string a) (Shape.to_string b);
  let bs = a.(0) and m = a.(1) and k = a.(2) and n = b.(2) in
  {
    kind = Batch_matmul;
    out_shape = [| bs; m; n |];
    info =
      {
        Op_info.name = name Batch_matmul;
        kind = Op_info.Contraction;
        flops = 2 * bs * m * k * n;
        bytes_in = 4 * bs * ((m * k) + (k * n));
        bytes_out = 4 * bs * m * n;
      };
    kernel = arg2 Dense.batch_matmul;
  }

(* The output shape of a convolution, checking ranks and channels. *)
let conv_out ~stride:(sh, sw) ~padding (input : Shape.t) (filter : Shape.t) =
  if Shape.rank input <> 4 || Shape.rank filter <> 4 || input.(3) <> filter.(2) then
    fail "conv2d: input %s does not fit filter %s (rank-4 NHWC, channels must match)"
      (Shape.to_string input) (Shape.to_string filter);
  let oh = Convolution.out_dim padding ~size:input.(1) ~kernel:filter.(0) ~stride:sh in
  let ow = Convolution.out_dim padding ~size:input.(2) ~kernel:filter.(1) ~stride:sw in
  [| input.(0); oh; ow; filter.(3) |]

(* The backward ops declare the shape they produce; a gradient must be what
   the forward op would have produced from it. *)
let check_grad ctx ~forward (grad : Shape.t) =
  if not (Shape.equal forward grad) then
    fail "%s: forward gives %s but grad is %s" ctx (Shape.to_string forward)
      (Shape.to_string grad)

let conv2d ~stride ~padding (input : Shape.t) (filter : Shape.t) =
  let out_shape = conv_out ~stride ~padding input filter in
  {
    kind = Conv2d { stride; padding };
    out_shape;
    info = Op_info.conv2d ~stride ~padding ~input ~filter ~output:out_shape;
    kernel = arg2 (Convolution.conv2d ~stride ~padding);
  }

(* The two convolution backward kernels cost about one forward convolution
   each, which is how training lands near 3x forward flops. *)
let conv2d_backward_input ~stride ~padding ~input_shape
    (filter : Shape.t) (grad : Shape.t) =
  let kind = Conv2d_backward_input { stride; padding; input_shape } in
  check_grad (name kind) ~forward:(conv_out ~stride ~padding input_shape filter) grad;
  {
    kind;
    out_shape = input_shape;
    info =
      {
        (Op_info.conv2d ~stride ~padding ~input:input_shape ~filter ~output:grad)
        with
        Op_info.name = name kind;
      };
    kernel = arg2 (Convolution.conv2d_backward_input ~stride ~padding ~input_shape);
  }

let conv2d_backward_filter ~stride ~padding ~filter_shape
    (input : Shape.t) (grad : Shape.t) =
  let kind = Conv2d_backward_filter { stride; padding; filter_shape } in
  check_grad (name kind) ~forward:(conv_out ~stride ~padding input filter_shape) grad;
  {
    kind;
    out_shape = filter_shape;
    info =
      {
        (Op_info.conv2d ~stride ~padding ~input ~filter:filter_shape ~output:grad)
        with
        Op_info.name = name kind;
      };
    kernel = arg2 (Convolution.conv2d_backward_filter ~stride ~padding ~filter_shape);
  }

let pool_out_shape (input : Shape.t) (kh, kw) (sh, sw) =
  if Shape.rank input <> 4 then
    fail "pool: expects rank-4 NHWC input, has %s" (Shape.to_string input);
  let oh = Convolution.out_dim Valid ~size:input.(1) ~kernel:kh ~stride:sh in
  let ow = Convolution.out_dim Valid ~size:input.(2) ~kernel:kw ~stride:sw in
  [| input.(0); oh; ow; input.(3) |]

let pool kind ~size ~stride (input : Shape.t) kernel =
  let out_shape = pool_out_shape input size stride in
  {
    kind;
    out_shape;
    info =
      {
        (Op_info.reduction (name kind) ~input ~output:out_shape) with
        Op_info.flops = Shape.numel out_shape * fst size * snd size;
      };
    kernel = arg1 kernel;
  }

let avg_pool2d ~size ~stride input =
  pool (Avg_pool2d { size; stride }) ~size ~stride input
    (Convolution.avg_pool2d ~size ~stride)

let max_pool2d ~size ~stride input =
  pool (Max_pool2d { size; stride }) ~size ~stride input
    (Convolution.max_pool2d ~size ~stride)

let avg_pool2d_backward ~size ~stride ~input_shape (grad : Shape.t) =
  let kind = Avg_pool2d_backward { size; stride; input_shape } in
  check_grad (name kind) ~forward:(pool_out_shape input_shape size stride) grad;
  {
    kind;
    out_shape = input_shape;
    info = Op_info.elementwise (name kind) ~inputs:[ grad ] ~output:input_shape ();
    kernel = arg1 (Convolution.avg_pool2d_backward ~size ~stride ~input_shape);
  }

let max_pool2d_backward ~size ~stride (input : Shape.t) (grad : Shape.t) =
  let kind = Max_pool2d_backward { size; stride } in
  check_grad (name kind) ~forward:(pool_out_shape input size stride) grad;
  {
    kind;
    out_shape = input;
    info = Op_info.elementwise (name kind) ~inputs:[ input; grad ] ~output:input ();
    kernel = arg2 (Convolution.max_pool2d_backward ~size ~stride);
  }

(** {1 Shape inference from a kind} *)

(** [of_kind kind inputs] builds the op [kind] applied to operands of shapes
    [inputs], through the same constructor the backends call. Raises
    [Invalid_argument] on the wrong number of operands and
    [Shape.Shape_error] when the shapes do not fit the op. *)
let of_kind kind (inputs : Shape.t list) =
  let arity n =
    invalid_arg
      (Printf.sprintf "%s: expects %d input(s), has %d" (name kind) n
         (List.length inputs))
  in
  let one (f : Shape.t -> op) = match inputs with [ a ] -> f a | _ -> arity 1 in
  let two (f : Shape.t -> Shape.t -> op) =
    match inputs with [ a; b ] -> f a b | _ -> arity 2
  in
  match kind with
  | Add -> two add
  | Sub -> two sub
  | Mul -> two mul
  | Div -> two div
  | Relu_grad -> two relu_grad
  | Neg -> one neg
  | Exp -> one exp
  | Log -> one log
  | Sqrt -> one sqrt
  | Relu -> one relu
  | Sigmoid -> one sigmoid
  | Tanh -> one tanh
  | Softmax -> one softmax
  | Log_softmax -> one log_softmax
  | Scale c -> one (scale c)
  | Add_scalar c -> one (add_scalar c)
  | Reshape s -> one (fun a -> reshape a s)
  | Transpose -> one transpose
  | Broadcast_to s -> one (fun a -> broadcast_to a s)
  | Unbroadcast s -> one (fun a -> unbroadcast a s)
  | Sum_axes { axes; keep_dims } -> one (fun a -> sum_axes ~keep_dims a axes)
  | Sum_all -> one sum_all
  | Mean_all -> one mean_all
  | Matmul -> two matmul
  | Batch_matmul -> two batch_matmul
  | Batch_transpose -> one batch_transpose
  | Conv2d { stride; padding } -> two (conv2d ~stride ~padding)
  | Conv2d_backward_input { stride; padding; input_shape } ->
      two (conv2d_backward_input ~stride ~padding ~input_shape)
  | Conv2d_backward_filter { stride; padding; filter_shape } ->
      two (conv2d_backward_filter ~stride ~padding ~filter_shape)
  | Avg_pool2d { size; stride } -> one (avg_pool2d ~size ~stride)
  | Avg_pool2d_backward { size; stride; input_shape } ->
      one (avg_pool2d_backward ~size ~stride ~input_shape)
  | Max_pool2d { size; stride } -> one (max_pool2d ~size ~stride)
  | Max_pool2d_backward { size; stride } -> two (max_pool2d_backward ~size ~stride)

(** {1 Derivatives} *)

(** The derivative of each kind, written once against the Tensor API so
    that every backend runs it: as in §2, a derivative is registered with
    its op, and the AD engine only composes the rules. *)
module Vjp (B : Backend_intf.S) = struct
  (** [pullback kind xs y g]: one thunk per operand in [xs], computing that
      operand's cotangent from the op's output [y] and the output's
      cotangent [g]. Only the thunks of tracked operands run, so a constant
      operand's cotangent is never computed. Raises [Invalid_argument] for
      a kind with no derivative. *)
  let pullback kind (xs : B.t list) (y : B.t) (g : B.t) : (unit -> B.t) list =
    let shape = B.shape in
    let arity () = invalid_arg (name kind ^ ": wrong number of operands") in
    let one dx = match xs with [ a ] -> [ (fun () -> dx a) ] | _ -> arity () in
    let two da db =
      match xs with [ a; b ] -> [ (fun () -> da a b); (fun () -> db a b) ] | _ -> arity ()
    in
    match kind with
    | Add ->
        two (fun a _ -> B.unbroadcast g (shape a)) (fun _ b -> B.unbroadcast g (shape b))
    | Sub ->
        two
          (fun a _ -> B.unbroadcast g (shape a))
          (fun _ b -> B.unbroadcast (B.neg g) (shape b))
    | Mul ->
        two
          (fun a b -> B.unbroadcast (B.mul g b) (shape a))
          (fun a b -> B.unbroadcast (B.mul g a) (shape b))
    | Div ->
        two
          (fun a b -> B.unbroadcast (B.div g b) (shape a))
          (fun a b -> B.unbroadcast (B.neg (B.div (B.mul g a) (B.mul b b))) (shape b))
    | Neg -> one (fun _ -> B.neg g)
    | Scale c -> one (fun _ -> B.scale c g)
    | Add_scalar _ -> one (fun _ -> g)
    | Relu -> one (fun a -> B.relu_grad a g)
    | Sigmoid ->
        (* y * (1 - y) * g *)
        one (fun _ ->
            let one_minus = B.add_scalar 1.0 (B.neg y) in
            B.mul g (B.mul y one_minus))
    | Tanh ->
        one (fun _ ->
            let one_minus_sq = B.add_scalar 1.0 (B.neg (B.mul y y)) in
            B.mul g one_minus_sq)
    | Exp -> one (fun _ -> B.mul g y)
    | Log -> one (fun a -> B.div g a)
    | Sqrt -> one (fun _ -> B.div g (B.scale 2.0 y))
    | Reshape _ -> one (fun a -> B.reshape g (shape a))
    | Transpose -> one (fun _ -> B.transpose g)
    | Broadcast_to _ -> one (fun a -> B.unbroadcast g (shape a))
    | Sum_all -> one (fun a -> B.broadcast_to g (shape a))
    | Mean_all ->
        one (fun a ->
            let n = float_of_int (Shape.numel (shape a)) in
            B.scale (1.0 /. n) (B.broadcast_to g (shape a)))
    | Sum_axes { axes; keep_dims = _ } ->
        (* broadcast back, via the keep-dims shape *)
        one (fun a ->
            let orig = shape a in
            B.broadcast_to (B.reshape g (Shape.reduce_axes ~keep_dims:true orig axes)) orig)
    | Matmul ->
        two (fun _ b -> B.matmul g (B.transpose b)) (fun a _ -> B.matmul (B.transpose a) g)
    | Batch_matmul ->
        two
          (fun _ b -> B.batch_matmul g (B.batch_transpose b))
          (fun a _ -> B.batch_matmul (B.batch_transpose a) g)
    | Batch_transpose -> one (fun _ -> B.batch_transpose g)
    | Conv2d { stride; padding } ->
        two
          (fun x f -> B.conv2d_backward_input ~stride ~padding ~input_shape:(shape x) f g)
          (fun x f -> B.conv2d_backward_filter ~stride ~padding ~filter_shape:(shape f) x g)
    | Avg_pool2d { size; stride } ->
        one (fun a -> B.avg_pool2d_backward ~size ~stride ~input_shape:(shape a) g)
    | Max_pool2d { size; stride } -> one (fun a -> B.max_pool2d_backward ~size ~stride a g)
    | Relu_grad | Softmax | Log_softmax | Unbroadcast _ | Conv2d_backward_input _
    | Conv2d_backward_filter _ | Avg_pool2d_backward _ | Max_pool2d_backward _ ->
        invalid_arg (name kind ^ ": no derivative")
end

(** {1 The Tensor API over the catalog} *)

(** What a catalog-dispatched backend supplies: its tensor type, transfers,
    and what it does with each op ([Runtime.dispatch] on eager, a trace
    record on lazy). *)
module type DISPATCH = sig
  type t

  val name : string
  val of_dense : Dense.t -> t
  val to_dense : t -> Dense.t
  val shape : t -> Shape.t

  (** [run o args]: apply op [o], built from the shapes of [args]. *)
  val run : op -> t list -> t
end

(** The Tensor API over a dispatcher. Each call builds its op from the
    operands' shapes and hands it to [D.run]; the API's stride defaults are
    applied here, once, for every such backend. *)
module Backend (D : DISPATCH) : Backend_intf.S with type t = D.t = struct
  include D

  (* Each API function below shadows the catalog constructor of the same
     name, which its body calls. *)
  let run1 o a = run o [ a ]
  let run2 o a b = run o [ a; b ]
  let add a b = run2 (add (shape a) (shape b)) a b
  let sub a b = run2 (sub (shape a) (shape b)) a b
  let mul a b = run2 (mul (shape a) (shape b)) a b
  let div a b = run2 (div (shape a) (shape b)) a b
  let relu_grad x g = run2 (relu_grad (shape x) (shape g)) x g
  let neg a = run1 (neg (shape a)) a
  let exp a = run1 (exp (shape a)) a
  let log a = run1 (log (shape a)) a
  let sqrt a = run1 (sqrt (shape a)) a
  let relu a = run1 (relu (shape a)) a
  let sigmoid a = run1 (sigmoid (shape a)) a
  let tanh a = run1 (tanh (shape a)) a
  let softmax a = run1 (softmax (shape a)) a
  let log_softmax a = run1 (log_softmax (shape a)) a
  let scale c a = run1 (scale c (shape a)) a
  let add_scalar c a = run1 (add_scalar c (shape a)) a
  let reshape a s = run1 (reshape (shape a) s) a
  let transpose a = run1 (transpose (shape a)) a
  let broadcast_to a s = run1 (broadcast_to (shape a) s) a
  let unbroadcast a s = run1 (unbroadcast (shape a) s) a
  let sum_axes ?keep_dims a axes = run1 (sum_axes ?keep_dims (shape a) axes) a
  let sum_all a = run1 (sum_all (shape a)) a
  let mean_all a = run1 (mean_all (shape a)) a
  let matmul a b = run2 (matmul (shape a) (shape b)) a b
  let batch_matmul a b = run2 (batch_matmul (shape a) (shape b)) a b
  let batch_transpose a = run1 (batch_transpose (shape a)) a
  let conv_stride = Option.value ~default:Backend_intf.default_conv_stride

  let conv2d ?stride ~padding x f =
    run2 (conv2d ~stride:(conv_stride stride) ~padding (shape x) (shape f)) x f

  let conv2d_backward_input ?stride ~padding ~input_shape f g =
    let stride = conv_stride stride in
    run2 (conv2d_backward_input ~stride ~padding ~input_shape (shape f) (shape g)) f g

  let conv2d_backward_filter ?stride ~padding ~filter_shape x g =
    let stride = conv_stride stride in
    run2 (conv2d_backward_filter ~stride ~padding ~filter_shape (shape x) (shape g)) x g

  let pool_stride stride ~size =
    Option.value stride ~default:(Backend_intf.default_pool_stride ~size)

  let avg_pool2d ?stride ~size a =
    run1 (avg_pool2d ~size ~stride:(pool_stride stride ~size) (shape a)) a

  let avg_pool2d_backward ?stride ~size ~input_shape g =
    let stride = pool_stride stride ~size in
    run1 (avg_pool2d_backward ~size ~stride ~input_shape (shape g)) g

  let max_pool2d ?stride ~size a =
    run1 (max_pool2d ~size ~stride:(pool_stride stride ~size) (shape a)) a

  let max_pool2d_backward ?stride ~size x g =
    let stride = pool_stride stride ~size in
    run2 (max_pool2d_backward ~size ~stride (shape x) (shape g)) x g
end
