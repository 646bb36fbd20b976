(** The operation catalog: one record per Tensor operation, bundling shape
    inference, cost metadata and the reference kernel.

    Both accelerated runtimes consume this catalog — the eager runtime
    (§3.2) dispatches each record as one kernel the moment the user calls the
    op; the lazy runtime (§3.3) records it into a trace node and defers
    execution to the XLA-style compiler. Keeping one catalog guarantees the
    two backends agree exactly on semantics, shapes, and declared cost. *)

open S4o_tensor
module Op_info = S4o_device.Op_info

type op = {
  name : string;
  attrs : string;  (** Semantics-affecting parameters (stride, axes, ...). *)
  out_shape : Shape.t;
  info : Op_info.t;
  kernel : Dense.t array -> Dense.t;
}

let arg1 k = fun (args : Dense.t array) -> k args.(0)
let arg2 k = fun (args : Dense.t array) -> k args.(0) args.(1)

(** {1 Elementwise} *)

let binary name f ?(flops_per_elem = 1) (a : Shape.t) (b : Shape.t) =
  let out_shape = Shape.broadcast a b in
  {
    name;
    attrs = "";
    out_shape;
    info =
      Op_info.elementwise name ~inputs:[ a; b ] ~output:out_shape ~flops_per_elem ();
    kernel = arg2 f;
  }

let unary name f ?(flops_per_elem = 1) ?(attrs = "") (a : Shape.t) =
  {
    name;
    attrs;
    out_shape = a;
    info = Op_info.elementwise name ~inputs:[ a ] ~output:a ~flops_per_elem ();
    kernel = arg1 f;
  }

let add = binary "add" Dense.add
let sub = binary "sub" Dense.sub
let mul = binary "mul" Dense.mul
let div = binary "div" Dense.div
let neg = unary "neg" Dense.neg
let exp = unary "exp" Dense.exp ~flops_per_elem:4
let log = unary "log" Dense.log ~flops_per_elem:4
let sqrt = unary "sqrt" Dense.sqrt ~flops_per_elem:2
let relu = unary "relu" Dense.relu
let sigmoid = unary "sigmoid" Dense.sigmoid ~flops_per_elem:6
let tanh = unary "tanh" Dense.tanh ~flops_per_elem:6

let scale c a =
  unary "scale" (Dense.scale c) ~attrs:(Format.sprintf "c=%g" c) a

let add_scalar c a =
  unary "add_scalar" (Dense.add_scalar c) ~attrs:(Format.sprintf "c=%g" c) a

let relu_grad (x : Shape.t) (g : Shape.t) =
  let out_shape = Shape.broadcast x g in
  {
    name = "relu_grad";
    attrs = "";
    out_shape;
    info = Op_info.elementwise "relu_grad" ~inputs:[ x; g ] ~output:out_shape ();
    kernel = arg2 Dense.relu_grad;
  }

(** {1 Shape manipulation} *)

let reshape (a : Shape.t) (target : Shape.t) =
  if not (Shape.can_reshape a target) then
    raise (Shape.Shape_error "reshape: element count mismatch");
  {
    name = "reshape";
    attrs = Shape.to_string target;
    out_shape = target;
    info = Op_info.data_movement "reshape" ~input:a ~output:target;
    kernel = arg1 (fun t -> Dense.reshape t target);
  }

let transpose (a : Shape.t) =
  if Shape.rank a <> 2 then raise (Shape.Shape_error "transpose: rank 2 only");
  let out_shape = [| a.(1); a.(0) |] in
  {
    name = "transpose";
    attrs = "";
    out_shape;
    info = Op_info.data_movement "transpose" ~input:a ~output:out_shape;
    kernel = arg1 Dense.transpose;
  }

let broadcast_to (a : Shape.t) (target : Shape.t) =
  {
    name = "broadcast";
    attrs = Shape.to_string target;
    out_shape = Shape.broadcast a target;
    info = Op_info.data_movement "broadcast" ~input:a ~output:target;
    kernel = arg1 (fun t -> Dense.broadcast_to t target);
  }

let unbroadcast (a : Shape.t) (target : Shape.t) =
  {
    name = "unbroadcast";
    attrs = Shape.to_string target;
    out_shape = target;
    info = Op_info.reduction "unbroadcast" ~input:a ~output:target;
    kernel = arg1 (fun t -> Dense.unbroadcast t target);
  }

(** {1 Reductions} *)

let sum_axes ?(keep_dims = false) (a : Shape.t) axes =
  let out_shape = Shape.reduce_axes ~keep_dims a axes in
  {
    name = "sum_axes";
    attrs =
      Format.sprintf "axes=%s%s"
        (String.concat "," (List.map string_of_int axes))
        (if keep_dims then ";keep" else "");
    out_shape;
    info = Op_info.reduction "sum_axes" ~input:a ~output:out_shape;
    kernel = arg1 (fun t -> Dense.sum_axes ~keep_dims t axes);
  }

let sum_all (a : Shape.t) =
  {
    name = "sum_all";
    attrs = "";
    out_shape = [||];
    info = Op_info.reduction "sum_all" ~input:a ~output:[||];
    kernel = arg1 (fun t -> Dense.scalar (Dense.sum t));
  }

let mean_all (a : Shape.t) =
  {
    name = "mean_all";
    attrs = "";
    out_shape = [||];
    info = Op_info.reduction "mean_all" ~input:a ~output:[||];
    kernel = arg1 (fun t -> Dense.scalar (Dense.mean t));
  }

(** {1 Linear algebra and NN kernels} *)

let matmul (a : Shape.t) (b : Shape.t) =
  if Shape.rank a <> 2 || Shape.rank b <> 2 || a.(1) <> b.(0) then
    raise
      (Shape.Shape_error
         (Format.sprintf "matmul: %s x %s" (Shape.to_string a) (Shape.to_string b)));
  let m = a.(0) and k = a.(1) and n = b.(1) in
  {
    name = "matmul";
    attrs = "";
    out_shape = [| m; n |];
    info = Op_info.matmul ~m ~k ~n;
    kernel = arg2 Dense.matmul;
  }

let batch_matmul (a : Shape.t) (b : Shape.t) =
  if Shape.rank a <> 3 || Shape.rank b <> 3 || a.(0) <> b.(0) || a.(2) <> b.(1)
  then
    raise
      (Shape.Shape_error
         (Format.sprintf "batch_matmul: %s x %s" (Shape.to_string a)
            (Shape.to_string b)));
  let bs = a.(0) and m = a.(1) and k = a.(2) and n = b.(2) in
  {
    name = "batch_matmul";
    attrs = "";
    out_shape = [| bs; m; n |];
    info =
      {
        Op_info.name = "batch_matmul";
        kind = Op_info.Contraction;
        flops = 2 * bs * m * k * n;
        bytes_in = 4 * bs * ((m * k) + (k * n));
        bytes_out = 4 * bs * m * n;
      };
    kernel = arg2 Dense.batch_matmul;
  }

let batch_transpose (a : Shape.t) =
  if Shape.rank a <> 3 then
    raise (Shape.Shape_error "batch_transpose: rank 3 only");
  let out_shape = [| a.(0); a.(2); a.(1) |] in
  {
    name = "batch_transpose";
    attrs = "";
    out_shape;
    info = Op_info.data_movement "batch_transpose" ~input:a ~output:out_shape;
    kernel = arg1 Dense.batch_transpose;
  }

let conv_attrs (sh, sw) padding =
  Format.sprintf "stride=%dx%d;pad=%s" sh sw
    (match (padding : Convolution.padding) with Same -> "same" | Valid -> "valid")

let conv2d ?(stride = (1, 1)) ~padding (input : Shape.t) (filter : Shape.t) =
  let sh, sw = stride in
  let oh = Convolution.out_dim padding ~size:input.(1) ~kernel:filter.(0) ~stride:sh in
  let ow = Convolution.out_dim padding ~size:input.(2) ~kernel:filter.(1) ~stride:sw in
  let out_shape = [| input.(0); oh; ow; filter.(3) |] in
  {
    name = "conv2d";
    attrs = conv_attrs stride padding;
    out_shape;
    info = Op_info.conv2d ~stride ~padding ~input ~filter ~output:out_shape ();
    kernel = arg2 (Convolution.conv2d ~stride ~padding);
  }

(* The two convolution backward kernels cost about one forward convolution
   each, which is how training lands near 3x forward flops. *)
let conv2d_backward_input ?(stride = (1, 1)) ~padding ~input_shape
    (filter : Shape.t) (grad : Shape.t) =
  {
    name = "conv2d_backward_input";
    attrs = conv_attrs stride padding;
    out_shape = input_shape;
    info =
      {
        (Op_info.conv2d ~stride ~padding ~input:input_shape ~filter
           ~output:grad ())
        with
        Op_info.name = "conv2d_backward_input";
      };
    kernel = arg2 (Convolution.conv2d_backward_input ~stride ~padding ~input_shape);
  }

let conv2d_backward_filter ?(stride = (1, 1)) ~padding ~filter_shape
    (input : Shape.t) (grad : Shape.t) =
  {
    name = "conv2d_backward_filter";
    attrs = conv_attrs stride padding;
    out_shape = filter_shape;
    info =
      {
        (Op_info.conv2d ~stride ~padding ~input ~filter:filter_shape
           ~output:grad ())
        with
        Op_info.name = "conv2d_backward_filter";
      };
    kernel = arg2 (Convolution.conv2d_backward_filter ~stride ~padding ~filter_shape);
  }

let pool_attrs (kh, kw) (sh, sw) = Format.sprintf "size=%dx%d;stride=%dx%d" kh kw sh sw

let pool_out_shape (input : Shape.t) (kh, kw) (sh, sw) =
  let oh = Convolution.out_dim Valid ~size:input.(1) ~kernel:kh ~stride:sh in
  let ow = Convolution.out_dim Valid ~size:input.(2) ~kernel:kw ~stride:sw in
  [| input.(0); oh; ow; input.(3) |]

let avg_pool2d ~size ~stride (input : Shape.t) =
  let out_shape = pool_out_shape input size stride in
  {
    name = "avg_pool2d";
    attrs = pool_attrs size stride;
    out_shape;
    info =
      {
        (Op_info.reduction "avg_pool2d" ~input ~output:out_shape) with
        Op_info.flops = Shape.numel out_shape * fst size * snd size;
      };
    kernel = arg1 (Convolution.avg_pool2d ~size ~stride);
  }

let avg_pool2d_backward ~size ~stride ~input_shape (grad : Shape.t) =
  {
    name = "avg_pool2d_backward";
    attrs = pool_attrs size stride;
    out_shape = input_shape;
    info = Op_info.elementwise "avg_pool2d_backward" ~inputs:[ grad ] ~output:input_shape ();
    kernel = arg1 (Convolution.avg_pool2d_backward ~size ~stride ~input_shape);
  }

let max_pool2d ~size ~stride (input : Shape.t) =
  let out_shape = pool_out_shape input size stride in
  {
    name = "max_pool2d";
    attrs = pool_attrs size stride;
    out_shape;
    info =
      {
        (Op_info.reduction "max_pool2d" ~input ~output:out_shape) with
        Op_info.flops = Shape.numel out_shape * fst size * snd size;
      };
    kernel = arg1 (Convolution.max_pool2d ~size ~stride);
  }

let max_pool2d_backward ~size ~stride (input : Shape.t) (grad : Shape.t) =
  {
    name = "max_pool2d_backward";
    attrs = pool_attrs size stride;
    out_shape = input;
    info = Op_info.elementwise "max_pool2d_backward" ~inputs:[ input; grad ] ~output:input ();
    kernel = arg2 (Convolution.max_pool2d_backward ~size ~stride);
  }

let softmax (a : Shape.t) =
  {
    name = "softmax";
    attrs = "";
    out_shape = a;
    info = Op_info.elementwise "softmax" ~inputs:[ a ] ~output:a ~flops_per_elem:5 ();
    kernel = arg1 Dense.softmax;
  }

let log_softmax (a : Shape.t) =
  {
    name = "log_softmax";
    attrs = "";
    out_shape = a;
    info = Op_info.elementwise "log_softmax" ~inputs:[ a ] ~output:a ~flops_per_elem:5 ();
    kernel = arg1 Dense.log_softmax;
  }
