module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t
type t = { shape : Shape.t; data : buffer }

exception Shape_error = Shape.Shape_error

let fail fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

(* Every tensor buffer in the library is allocated here, so this is the
   single hook for off-heap memory accounting. When the global tracker is
   off (the default) the cost is one load and branch; when on, the buffer
   is charged to the current attribution tag and a GC finaliser credits
   the free. The finaliser captures the tracker generation so a buffer
   that dies after [Memory.reset] is dropped instead of corrupting the
   next measurement's balance. *)
let alloc n : buffer =
  let data = A.create Bigarray.float64 Bigarray.c_layout n in
  let mem = S4o_obs.Memory.global in
  if S4o_obs.Memory.enabled mem then begin
    let bytes = 8 * n in
    let tag = S4o_obs.Memory.current_tag mem in
    let gen = S4o_obs.Memory.generation mem in
    S4o_obs.Memory.alloc mem ~tag bytes;
    Gc.finalise (fun _ -> S4o_obs.Memory.free_gen mem ~gen ~tag bytes) data
  end;
  data

(* {1 Creation} *)

let create shape v =
  Shape.check_valid shape;
  let data = alloc (Shape.numel shape) in
  A.fill data v;
  { shape = Array.copy shape; data }

let zeros shape = create shape 0.0
let ones shape = create shape 1.0

(* Uninitialized storage — kernels-only: every element must be written
   before the tensor escapes (im2col writes zero spans for padding columns
   explicitly instead of paying a full pre-fill pass). *)
let uninit shape =
  Shape.check_valid shape;
  { shape = Array.copy shape; data = alloc (Shape.numel shape) }

let scalar v =
  let data = alloc 1 in
  A.unsafe_set data 0 v;
  { shape = [||]; data }

let of_array shape src =
  Shape.check_valid shape;
  if Array.length src <> Shape.numel shape then
    fail "of_array: %d elements for shape %s" (Array.length src)
      (Shape.to_string shape);
  let data = alloc (Array.length src) in
  for i = 0 to Array.length src - 1 do
    A.unsafe_set data i (Array.unsafe_get src i)
  done;
  { shape = Array.copy shape; data }

(* Fills in increasing flat order: PRNG-fed initializers consume their
   stream element-by-element and rely on it. *)
let init_flat shape f =
  Shape.check_valid shape;
  let n = Shape.numel shape in
  let data = alloc n in
  for i = 0 to n - 1 do
    A.unsafe_set data i (f i)
  done;
  { shape = Array.copy shape; data }

let init shape f = init_flat shape (fun i -> f (Shape.unravel shape i))

let arange n = init_flat [| n |] float_of_int

let linspace ~lo ~hi n =
  if n < 2 then fail "linspace: need at least 2 points";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  init_flat [| n |] (fun i -> lo +. (step *. float_of_int i))

let rand_uniform g ?(lo = 0.0) ?(hi = 1.0) shape =
  init_flat shape (fun _ -> Prng.uniform g ~lo ~hi)

let rand_normal g ?(mean = 0.0) ?(stddev = 1.0) shape =
  init_flat shape (fun _ -> Prng.gaussian g ~mean ~stddev)

(* {1 Access} *)

let shape t = t.shape
let rank t = Shape.rank t.shape
let numel t = A.dim t.data

let get t idx =
  if Array.length idx <> rank t then
    fail "get: index rank %d for shape %s" (Array.length idx)
      (Shape.to_string t.shape);
  t.data.{Shape.offset (Shape.strides t.shape) idx}

let get_flat t i = t.data.{i}

let item t =
  if numel t <> 1 then fail "item: tensor has %d elements" (numel t);
  A.unsafe_get t.data 0

let to_array t = Array.init (numel t) (fun i -> A.unsafe_get t.data i)
let unsafe_data t = t.data

let copy t =
  let n = numel t in
  let data = alloc n in
  A.blit t.data data;
  { shape = Array.copy t.shape; data }

let with_shape t new_shape =
  Shape.check_valid new_shape;
  if Shape.numel new_shape <> numel t then
    fail "with_shape: %s has %d elements, tensor has %d"
      (Shape.to_string new_shape) (Shape.numel new_shape) (numel t);
  S4o_obs.Memory.note_view S4o_obs.Memory.global;
  { shape = Array.copy new_shape; data = t.data }

(* {1 Functional update} *)

let set t idx v =
  let fresh = copy t in
  fresh.data.{Shape.offset (Shape.strides t.shape) idx} <- v;
  fresh

let set_flat t i v =
  let fresh = copy t in
  fresh.data.{i} <- v;
  fresh

(* {1 In-place} *)

let fill ?(pos = 0) ?len t v =
  let len = match len with Some l -> l | None -> numel t - pos in
  if pos < 0 || len < 0 || pos + len > numel t then
    fail "fill: [%d, %d) out of bounds for %d elements" pos (pos + len)
      (numel t);
  A.fill (A.sub t.data pos len) v

let fill_inplace t v = fill t v

let blit_flat ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || src_pos + len > numel src then
    fail "blit_flat: src range [%d, %d) out of bounds for %d elements" src_pos
      (src_pos + len) (numel src);
  if dst_pos < 0 || dst_pos + len > numel dst then
    fail "blit_flat: dst range [%d, %d) out of bounds for %d elements" dst_pos
      (dst_pos + len) (numel dst);
  A.blit (A.sub src.data src_pos len) (A.sub dst.data dst_pos len)

let blit src dst =
  if numel src <> numel dst then
    fail "blit: %d elements into %d" (numel src) (numel dst);
  A.blit src.data dst.data

let check_same_shape ctx a b =
  if not (Shape.equal a.shape b.shape) then
    fail "%s: shape mismatch %s vs %s" ctx (Shape.to_string a.shape)
      (Shape.to_string b.shape)

let add_inplace dst src =
  check_same_shape "add_inplace" dst src;
  let d = dst.data and s = src.data in
  for i = 0 to numel dst - 1 do
    A.unsafe_set d i (A.unsafe_get d i +. A.unsafe_get s i)
  done

let axpy_inplace ~alpha dst x =
  check_same_shape "axpy_inplace" dst x;
  let d = dst.data and s = x.data in
  for i = 0 to numel dst - 1 do
    A.unsafe_set d i (A.unsafe_get d i +. (alpha *. A.unsafe_get s i))
  done

let scale_inplace t alpha =
  let d = t.data in
  for i = 0 to numel t - 1 do
    A.unsafe_set d i (alpha *. A.unsafe_get d i)
  done

let add_at_inplace t idx v =
  let off = Shape.offset (Shape.strides t.shape) idx in
  t.data.{off} <- t.data.{off} +. v

(* {1 Elementwise} *)

let map f t =
  let n = numel t in
  let out = alloc n in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (f (A.unsafe_get d i))
  done;
  { shape = Array.copy t.shape; data = out }

(* Advance the row-major multi-index [idx] over [shape] by one element,
   rightmost axis fastest (past the last element it wraps to zeros). *)
let[@inline] next_index idx shape =
  let k = ref (Array.length idx - 1) in
  let carrying = ref true in
  while !carrying && !k >= 0 do
    idx.(!k) <- idx.(!k) + 1;
    if idx.(!k) = shape.(!k) then begin
      idx.(!k) <- 0;
      decr k
    end
    else carrying := false
  done

(* Strides of [s] aligned to the right of a rank-[r] output shape, 0 on
   stretched (size-1) or missing dimensions. *)
let aligned_strides s r =
  let rs = Shape.rank s in
  let st = Shape.strides s in
  Array.init r (fun i ->
      let j = i - (r - rs) in
      if j < 0 || s.(j) = 1 then 0 else st.(j))

(* The generic broadcasting walker: maps each output index back through
   stride-0 "stretched" dimensions with a carry-increment multi-index.
   Correct for every shape pair; the broadcast plans below only exist
   because this walk costs ~10x a flat loop per element. *)
let map2_strided f a b =
  let out_shape = Shape.broadcast a.shape b.shape in
  let r = Shape.rank out_shape in
  let sa = aligned_strides a.shape r and sb = aligned_strides b.shape r in
  let out = alloc (Shape.numel out_shape) in
  let da = a.data and db = b.data in
  let idx = Array.make r 0 in
  let n = Shape.numel out_shape in
  for flat = 0 to n - 1 do
    A.unsafe_set out flat
      (f (A.unsafe_get da (Shape.offset sa idx))
         (A.unsafe_get db (Shape.offset sb idx)));
    next_index idx out_shape
  done;
  { shape = out_shape; data = out }

(* {2 Broadcast plans}

   A binary op classifies its operands once, then runs one flat loop.
   [Left]/[Right] names the operand that is broadcast (the small one). *)

type side = Left | Right

type plan =
  | Same  (** equal shapes *)
  | Scalar of side  (** one element, no more axes than the other side *)
  | Rows of side * int
      (** the small side, leading 1s dropped, is a trailing suffix of the
          other side's shape: output element [i] reads [small.(i mod m)] *)
  | Strided  (** anything else: the generic walker *)

(* [small] has no more axes than [big] and, with its leading 1s dropped,
   equals the trailing axes of [big]. Then [Shape.broadcast big small] is
   [big] and [small]'s flat index at output element [i] is [i mod numel
   small]. *)
let is_row_suffix ~small ~big =
  let rs = Shape.rank small and rb = Shape.rank big in
  rs <= rb
  &&
  let lead = ref 0 in
  while !lead < rs && small.(!lead) = 1 do
    incr lead
  done;
  let ok = ref true in
  for j = !lead to rs - 1 do
    if small.(j) <> big.(rb - rs + j) then ok := false
  done;
  !ok

(* [b] broadcasts onto [a.shape] as a single constant *)
let scalar_onto a b = numel b = 1 && Shape.rank b.shape <= Shape.rank a.shape

let plan a b =
  if Shape.equal a.shape b.shape then Same
  else if scalar_onto a b then Scalar Right
  else if scalar_onto b a then Scalar Left
  else if is_row_suffix ~small:b.shape ~big:a.shape then Rows (Right, numel b)
  else if is_row_suffix ~small:a.shape ~big:b.shape then Rows (Left, numel a)
  else Strided

(* The op a plan loop applies. Without flambda, inlining a loop that takes
   a closure still leaves an indirect call (and boxed floats) per element,
   which is most of an op's cost. A constant tag does specialise: when
   [apply2] is inlined with, say, [Add], the compiler resolves [eval]'s
   match and the loop body is a bare [addsd]. [Fn] is the generic case. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Relu_grad
  | Fn of (float -> float -> float)

let[@inline] eval op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Relu_grad -> if x > 0.0 then y else 0.0
  | Fn f -> f x y

(* For the walker, which takes a closure either way. *)
let closure = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Relu_grad -> fun x y -> eval Relu_grad x y
  | Fn f -> f

(* Runs [op] under [plan a b]. Every path applies [op] to the same operands,
   in the same order, as {!map2_strided}, so results are bit-identical to
   the walker. Operand buffers are bound after [alloc] so they are not
   live across the call (which would spill them and reload per element). *)
let[@inline] apply2 op a b =
  match plan a b with
  | Same ->
      let n = numel a in
      let out = alloc n in
      let da = a.data and db = b.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op (A.unsafe_get da i) (A.unsafe_get db i))
      done;
      { shape = Array.copy a.shape; data = out }
  | Scalar Right ->
      let c = A.unsafe_get b.data 0 in
      let n = numel a in
      let out = alloc n in
      let da = a.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op (A.unsafe_get da i) c)
      done;
      { shape = Array.copy a.shape; data = out }
  | Scalar Left ->
      let c = A.unsafe_get a.data 0 in
      let n = numel b in
      let out = alloc n in
      let db = b.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op c (A.unsafe_get db i))
      done;
      { shape = Array.copy b.shape; data = out }
  | Rows (Right, m) ->
      let n = numel a in
      let out = alloc n in
      let da = a.data and db = b.data in
      for r = 0 to (if m = 0 then 0 else n / m) - 1 do
        let base = r * m in
        for j = 0 to m - 1 do
          A.unsafe_set out (base + j)
            (eval op (A.unsafe_get da (base + j)) (A.unsafe_get db j))
        done
      done;
      { shape = Array.copy a.shape; data = out }
  | Rows (Left, m) ->
      let n = numel b in
      let out = alloc n in
      let da = a.data and db = b.data in
      for r = 0 to (if m = 0 then 0 else n / m) - 1 do
        let base = r * m in
        for j = 0 to m - 1 do
          A.unsafe_set out (base + j)
            (eval op (A.unsafe_get da j) (A.unsafe_get db (base + j)))
        done
      done;
      { shape = Array.copy b.shape; data = out }
  | Strided -> map2_strided (closure op) a b

let map2 f a b = apply2 (Fn f) a b
let add a b = apply2 Add a b
let sub a b = apply2 Sub a b
let mul a b = apply2 Mul a b
let div a b = apply2 Div a b
let relu_grad x g = apply2 Relu_grad x g

let neg t =
  let n = numel t in
  let out = alloc n in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (-.A.unsafe_get d i)
  done;
  { shape = Array.copy t.shape; data = out }

let scale alpha t =
  let n = numel t in
  let out = alloc n in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (alpha *. A.unsafe_get d i)
  done;
  { shape = Array.copy t.shape; data = out }

let relu t =
  let n = numel t in
  let out = alloc n in
  let d = t.data in
  for i = 0 to n - 1 do
    let x = A.unsafe_get d i in
    A.unsafe_set out i (if x > 0.0 then x else 0.0)
  done;
  { shape = Array.copy t.shape; data = out }

let add_scalar c = map (fun x -> c +. x)
let pow_scalar t p = map (fun x -> Float.pow x p) t
let exp = map Float.exp
let log = map Float.log
let sqrt = map Float.sqrt
let abs = map Float.abs
let sign = map (fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
let sigmoid = map (fun x -> 1.0 /. (1.0 +. Float.exp (-.x)))
let tanh = map Float.tanh
let maximum = map2 Float.max
let minimum = map2 Float.min
let clip ~lo ~hi = map (fun x -> Float.min hi (Float.max lo x))

(* {1 Comparison} *)

let equal a b =
  Shape.equal a.shape b.shape
  && begin
       let da = a.data and db = b.data in
       let ok = ref true in
       let i = ref 0 in
       let n = numel a in
       while !ok && !i < n do
         (* [=], not [Float.equal]: NaN <> NaN, as polymorphic equality on
            the old float-array storage had it *)
         if not (A.unsafe_get da !i = A.unsafe_get db !i) then ok := false;
         incr i
       done;
       !ok
     end

let allclose ?(rtol = 1e-5) ?(atol = 1e-8) a b =
  Shape.equal a.shape b.shape
  && begin
       let da = a.data and db = b.data in
       let ok = ref true in
       for i = 0 to numel a - 1 do
         let x = A.unsafe_get da i and y = A.unsafe_get db i in
         if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false
       done;
       !ok
     end

let hash_contents ?(prefix = 64) t =
  let n = min (max 0 prefix) (numel t) in
  let h = ref (Shape.hash t.shape) in
  let d = t.data in
  for i = 0 to n - 1 do
    let bits = Int64.to_int (Int64.bits_of_float (A.unsafe_get d i)) in
    h := ((!h * 31) lxor bits) land max_int
  done;
  !h

(* {1 Reductions} *)

let sum t =
  let d = t.data in
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. A.unsafe_get d i
  done;
  !acc

let mean t = sum t /. float_of_int (numel t)

let max_value t =
  let d = t.data in
  let acc = ref Float.neg_infinity in
  for i = 0 to numel t - 1 do
    acc := Float.max !acc (A.unsafe_get d i)
  done;
  !acc

let min_value t =
  let d = t.data in
  let acc = ref Float.infinity in
  for i = 0 to numel t - 1 do
    acc := Float.min !acc (A.unsafe_get d i)
  done;
  !acc

(* Every reduced axis of extent <> 1 comes before every kept axis of
   extent <> 1 (size-1 axes do not move the flat index). Then input element
   [i] lands in output element [i mod numel out]: the shape of every
   [unbroadcast] of a rows broadcast, and of BatchNorm's statistics. *)
let leading_reduction shape axes =
  let kept_seen = ref false and ok = ref true in
  Array.iteri
    (fun i d ->
      if d <> 1 then
        if not (List.mem i axes) then kept_seen := true
        else if !kept_seen then ok := false)
    shape;
  !ok

let sum_axes ?(keep_dims = false) t axes =
  let out_shape_kept = Shape.reduce_axes ~keep_dims:true t.shape axes in
  let out = zeros out_shape_kept in
  let n = numel t in
  let d = t.data and od = out.data in
  if leading_reduction t.shape axes then begin
    (* Row-accumulate: each output element still receives its inputs in
       increasing flat order, onto the same 0.0 start, as in the walk
       below — so the sums are bit-identical to it. *)
    let m = numel out in
    for r = 0 to (if m = 0 then 0 else n / m) - 1 do
      let base = r * m in
      for j = 0 to m - 1 do
        A.unsafe_set od j (A.unsafe_get od j +. A.unsafe_get d (base + j))
      done
    done
  end
  else begin
    let st_out = Shape.strides out_shape_kept in
    let r = rank t in
    let idx = Array.make r 0 in
    for flat = 0 to n - 1 do
      (* the output offset ignores reduced axes because their kept size is 1 *)
      let off = ref 0 in
      for i = 0 to r - 1 do
        if out_shape_kept.(i) <> 1 then off := !off + (st_out.(i) * idx.(i))
      done;
      A.unsafe_set od !off (A.unsafe_get od !off +. A.unsafe_get d flat);
      next_index idx t.shape
    done
  end;
  if keep_dims then out
  else { out with shape = Shape.reduce_axes ~keep_dims:false t.shape axes }

let mean_axes ?keep_dims t axes =
  let reduced =
    List.fold_left (fun acc ax -> acc * t.shape.(ax)) 1 axes |> float_of_int
  in
  scale (1.0 /. reduced) (sum_axes ?keep_dims t axes)

let argmax_rows t =
  if rank t <> 2 then
    fail "argmax_rows: expected rank 2, got %s" (Shape.to_string t.shape);
  let n = t.shape.(0) and c = t.shape.(1) in
  let d = t.data in
  Array.init n (fun i ->
      let best = ref 0 in
      for j = 1 to c - 1 do
        if A.unsafe_get d ((i * c) + j) > A.unsafe_get d ((i * c) + !best) then
          best := j
      done;
      !best)

(* {1 Shape manipulation} *)

let reshape t new_shape =
  Shape.check_valid new_shape;
  if not (Shape.can_reshape t.shape new_shape) then
    fail "reshape: %s to %s" (Shape.to_string t.shape)
      (Shape.to_string new_shape);
  let fresh = copy t in
  { fresh with shape = Array.copy new_shape }

let flatten_to_2d t =
  if rank t < 1 then fail "flatten_to_2d: rank 0";
  let n = t.shape.(0) in
  reshape t [| n; numel t / n |]

(* The one-operand form of {!map2_strided}: gathers [t] through
   stride-0 stretched dimensions. *)
let broadcast_strided t target =
  let r = Shape.rank target in
  let st = aligned_strides t.shape r in
  let n = Shape.numel target in
  let out = alloc n in
  let d = t.data in
  let idx = Array.make r 0 in
  for flat = 0 to n - 1 do
    A.unsafe_set out flat (A.unsafe_get d (Shape.offset st idx));
    next_index idx target
  done;
  { shape = Array.copy target; data = out }

let broadcast_to t target =
  let out = Shape.broadcast t.shape target in
  if not (Shape.equal out target) then
    fail "broadcast_to: %s does not broadcast to %s" (Shape.to_string t.shape)
      (Shape.to_string target);
  if Shape.equal t.shape target then copy t
  else if numel t = 1 then create target (A.unsafe_get t.data 0)
  else if is_row_suffix ~small:t.shape ~big:target then begin
    (* Tile: copy [t] into the first row, then keep doubling the filled
       prefix with [blit] — log2(rows) memcpys instead of a per-row or
       per-element loop. *)
    let m = numel t and n = Shape.numel target in
    let out = alloc n in
    if n > 0 then begin
      A.blit t.data (A.sub out 0 m);
      let filled = ref m in
      while !filled < n do
        let len = min !filled (n - !filled) in
        A.blit (A.sub out 0 len) (A.sub out !filled len);
        filled := !filled + len
      done
    end;
    { shape = Array.copy target; data = out }
  end
  else broadcast_strided t target

let unbroadcast t target =
  if Shape.equal t.shape target then t
  else begin
    let r = rank t and rt = Shape.rank target in
    (* sum away leading extra dimensions *)
    let lead = List.init (r - rt) (fun i -> i) in
    let t = if lead = [] then t else sum_axes t lead in
    (* sum over stretched (size-1) dimensions, keeping dims *)
    let axes = ref [] in
    Array.iteri
      (fun i d -> if d = 1 && (shape t).(i) <> 1 then axes := i :: !axes)
      target;
    let t = if !axes = [] then t else sum_axes ~keep_dims:true t !axes in
    reshape t target
  end

let transpose t =
  if rank t <> 2 then
    fail "transpose: expected rank 2, got %s" (Shape.to_string t.shape);
  let m = t.shape.(0) and n = t.shape.(1) in
  let d = t.data in
  init_flat [| n; m |] (fun flat ->
      let i = flat / m and j = flat mod m in
      A.unsafe_get d ((j * n) + i))

let permute t perm =
  let r = rank t in
  if Array.length perm <> r then fail "permute: rank mismatch";
  let seen = Array.make r false in
  Array.iter
    (fun p ->
      if p < 0 || p >= r || seen.(p) then fail "permute: invalid permutation";
      seen.(p) <- true)
    perm;
  let out_shape = Array.map (fun p -> t.shape.(p)) perm in
  let st = Shape.strides t.shape in
  let d = t.data in
  init out_shape (fun out_idx ->
      let src = Array.make r 0 in
      Array.iteri (fun i p -> src.(p) <- out_idx.(i)) perm;
      A.unsafe_get d (Shape.offset st src))

let concat a b axis =
  let out_shape = Shape.concat_dim a.shape b.shape axis in
  let st_a = Shape.strides a.shape and st_b = Shape.strides b.shape in
  let da = a.data and db = b.data in
  init out_shape (fun idx ->
      if idx.(axis) < a.shape.(axis) then A.unsafe_get da (Shape.offset st_a idx)
      else begin
        let idx' = Array.copy idx in
        idx'.(axis) <- idx.(axis) - a.shape.(axis);
        A.unsafe_get db (Shape.offset st_b idx')
      end)

let slice t ~axis ~start ~len =
  if axis < 0 || axis >= rank t then fail "slice: axis %d out of range" axis;
  if start < 0 || len < 0 || start + len > t.shape.(axis) then
    fail "slice: [%d, %d) out of bounds for axis of size %d" start (start + len)
      t.shape.(axis);
  let out_shape = Array.copy t.shape in
  out_shape.(axis) <- len;
  let st = Shape.strides t.shape in
  let d = t.data in
  init out_shape (fun idx ->
      let idx' = Array.copy idx in
      idx'.(axis) <- idx.(axis) + start;
      A.unsafe_get d (Shape.offset st idx'))

let one_hot ~classes labels =
  let n = numel labels in
  let out = zeros [| n; classes |] in
  let d = labels.data and od = out.data in
  for i = 0 to n - 1 do
    let c = int_of_float (A.unsafe_get d i) in
    if c < 0 || c >= classes then fail "one_hot: label %d out of range" c;
    A.unsafe_set od ((i * classes) + c) 1.0
  done;
  out

(* {1 Linear algebra} *)

(* Below this many scalar multiply-adds a matmul runs in the calling domain:
   fan-out overhead would dominate, and small unit-test products stay on one
   domain. 2^16 = a 40x40x40 product, roughly. *)
let serial_cutoff = 1 lsl 16

(* Cache block sizes: [kc_block] rows of B (one block of the reduction
   axis) by [nc_block] columns is sized to sit in L1/L2 while a pair of A
   rows streams past it. *)
let kc_block = 128
let nc_block = 128

(* Accumulate rows [lo, hi) of the product A[m,k] x B[k,n] into C.
   [ao]/[bo]/[co] are flat base offsets (batch_matmul reuses the kernel per
   batch). C must be zeroed by the caller.

   Determinism: for every output element the accumulation order is "kc
   blocks ascending, p ascending within the block" — a local accumulator
   per (element, block) is folded into C once per block. That order is the
   same in the 2x4 micro-kernel and in the edge loops, and is independent
   of [lo]/[hi], so any row partition (any domain count) produces
   bit-identical results. (B-panel packing below only rearranges where the
   same values are read from; it does not touch that order.) *)
let matmul_rows ~n ~k (da : buffer) ao (db : buffer) bo (dc : buffer) co lo hi =
  (* Scratch for the packed B panel: full 4-column quads laid out so the
     micro-kernel reads 4 consecutive floats per p step (unit stride
     instead of a +n walk through B — each p then consumes half a cache
     line sequentially and the hardware prefetcher keeps up). Quad q of a
     panel lives at [q*kl*4 + (p-p0)*4 + t]. A plain float array keeps
     the reads unboxed. *)
  let pack = Array.make (min kc_block k * min nc_block n) 0.0 in
  let pp = ref 0 in
  while !pp < k do
    let p0 = !pp in
    let p1 = min k (p0 + kc_block) in
    let kl = p1 - p0 in
    let kl4 = kl * 4 in
    let jj = ref 0 in
    while !jj < n do
      let j0 = !jj in
      let j1 = min n (j0 + nc_block) in
      let nquads = (j1 - j0) / 4 in
      (* pack: read B row-major (sequential), scatter into micro-panels *)
      for p = p0 to p1 - 1 do
        let src = bo + (p * n) + j0 in
        let dp = (p - p0) * 4 in
        for q = 0 to nquads - 1 do
          let s = src + (q * 4) and d = (q * kl4) + dp in
          Array.unsafe_set pack d (A.unsafe_get db s);
          Array.unsafe_set pack (d + 1) (A.unsafe_get db (s + 1));
          Array.unsafe_set pack (d + 2) (A.unsafe_get db (s + 2));
          Array.unsafe_set pack (d + 3) (A.unsafe_get db (s + 3))
        done
      done;
      let i = ref lo in
      (* 2x4 register micro-kernel *)
      while !i + 1 < hi do
        let ia = ao + (!i * k) and ib = ao + ((!i + 1) * k) in
        let ca = co + (!i * n) and cb = co + ((!i + 1) * n) in
        let j = ref j0 in
        let q = ref 0 in
        while !j + 3 < j1 do
          let j' = !j in
          let acc00 = ref 0.0 and acc01 = ref 0.0 in
          let acc02 = ref 0.0 and acc03 = ref 0.0 in
          let acc10 = ref 0.0 and acc11 = ref 0.0 in
          let acc12 = ref 0.0 and acc13 = ref 0.0 in
          (* strength-reduced cursors: +1 along the A rows, +4 through the
             packed micro-panel *)
          let ap = ref (ia + p0) and aq = ref (ib + p0) in
          let bb = ref (!q * kl4) in
          for _p = p0 to p1 - 1 do
            let a0 = A.unsafe_get da !ap in
            let a1 = A.unsafe_get da !aq in
            let bi = !bb in
            let b0 = Array.unsafe_get pack bi in
            let b1 = Array.unsafe_get pack (bi + 1) in
            let b2 = Array.unsafe_get pack (bi + 2) in
            let b3 = Array.unsafe_get pack (bi + 3) in
            acc00 := !acc00 +. (a0 *. b0);
            acc01 := !acc01 +. (a0 *. b1);
            acc02 := !acc02 +. (a0 *. b2);
            acc03 := !acc03 +. (a0 *. b3);
            acc10 := !acc10 +. (a1 *. b0);
            acc11 := !acc11 +. (a1 *. b1);
            acc12 := !acc12 +. (a1 *. b2);
            acc13 := !acc13 +. (a1 *. b3);
            incr ap;
            incr aq;
            bb := bi + 4
          done;
          A.unsafe_set dc (ca + j') (A.unsafe_get dc (ca + j') +. !acc00);
          A.unsafe_set dc (ca + j' + 1) (A.unsafe_get dc (ca + j' + 1) +. !acc01);
          A.unsafe_set dc (ca + j' + 2) (A.unsafe_get dc (ca + j' + 2) +. !acc02);
          A.unsafe_set dc (ca + j' + 3) (A.unsafe_get dc (ca + j' + 3) +. !acc03);
          A.unsafe_set dc (cb + j') (A.unsafe_get dc (cb + j') +. !acc10);
          A.unsafe_set dc (cb + j' + 1) (A.unsafe_get dc (cb + j' + 1) +. !acc11);
          A.unsafe_set dc (cb + j' + 2) (A.unsafe_get dc (cb + j' + 2) +. !acc12);
          A.unsafe_set dc (cb + j' + 3) (A.unsafe_get dc (cb + j' + 3) +. !acc13);
          j := j' + 4;
          incr q
        done;
        (* column remainder for the row pair *)
        while !j < j1 do
          let j' = !j in
          let acc0 = ref 0.0 and acc1 = ref 0.0 in
          for p = p0 to p1 - 1 do
            let b = A.unsafe_get db (bo + (p * n) + j') in
            acc0 := !acc0 +. (A.unsafe_get da (ia + p) *. b);
            acc1 := !acc1 +. (A.unsafe_get da (ib + p) *. b)
          done;
          A.unsafe_set dc (ca + j') (A.unsafe_get dc (ca + j') +. !acc0);
          A.unsafe_set dc (cb + j') (A.unsafe_get dc (cb + j') +. !acc1);
          incr j
        done;
        i := !i + 2
      done;
      (* row remainder *)
      if !i < hi then begin
        let ia = ao + (!i * k) in
        let ca = co + (!i * n) in
        let j = ref j0 in
        let q = ref 0 in
        while !j + 3 < j1 do
          let j' = !j in
          let acc0 = ref 0.0 and acc1 = ref 0.0 in
          let acc2 = ref 0.0 and acc3 = ref 0.0 in
          let ap = ref (ia + p0) in
          let bb = ref (!q * kl4) in
          for _p = p0 to p1 - 1 do
            let a0 = A.unsafe_get da !ap in
            let bi = !bb in
            acc0 := !acc0 +. (a0 *. Array.unsafe_get pack bi);
            acc1 := !acc1 +. (a0 *. Array.unsafe_get pack (bi + 1));
            acc2 := !acc2 +. (a0 *. Array.unsafe_get pack (bi + 2));
            acc3 := !acc3 +. (a0 *. Array.unsafe_get pack (bi + 3));
            incr ap;
            bb := bi + 4
          done;
          A.unsafe_set dc (ca + j') (A.unsafe_get dc (ca + j') +. !acc0);
          A.unsafe_set dc (ca + j' + 1) (A.unsafe_get dc (ca + j' + 1) +. !acc1);
          A.unsafe_set dc (ca + j' + 2) (A.unsafe_get dc (ca + j' + 2) +. !acc2);
          A.unsafe_set dc (ca + j' + 3) (A.unsafe_get dc (ca + j' + 3) +. !acc3);
          j := j' + 4;
          incr q
        done;
        while !j < j1 do
          let j' = !j in
          let acc = ref 0.0 in
          for p = p0 to p1 - 1 do
            acc :=
              !acc
              +. (A.unsafe_get da (ia + p) *. A.unsafe_get db (bo + (p * n) + j'))
          done;
          A.unsafe_set dc (ca + j') (A.unsafe_get dc (ca + j') +. !acc);
          incr j
        done
      end;
      jj := j1
    done;
    pp := p1
  done

let matmul ?domains a b =
  if rank a <> 2 || rank b <> 2 then
    fail "matmul: expected rank-2 operands, got %s and %s"
      (Shape.to_string a.shape) (Shape.to_string b.shape);
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then fail "matmul: inner dimensions %d and %d differ" k k';
  let out =
    S4o_obs.Memory.with_tag S4o_obs.Memory.global "matmul" (fun () ->
        zeros [| m; n |])
  in
  let da = a.data and db = b.data and dc = out.data in
  if m * n * k <= serial_cutoff then matmul_rows ~n ~k da 0 db 0 dc 0 0 m
  else
    Pool.run ?domains ~n:m (fun lo hi ->
        Sanitizer.note_write dc ~lo:(lo * n) ~len:((hi - lo) * n)
          ~who:"matmul out rows";
        Sanitizer.note_read da ~lo:(lo * k) ~len:((hi - lo) * k)
          ~who:"matmul A rows";
        Sanitizer.note_read db ~lo:0 ~len:(k * n) ~who:"matmul B";
        matmul_rows ~n ~k da 0 db 0 dc 0 lo hi);
  out

let dot a b =
  if rank a <> 1 || rank b <> 1 || numel a <> numel b then
    fail "dot: expected equal-length vectors";
  let da = a.data and db = b.data in
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (A.unsafe_get da i *. A.unsafe_get db i)
  done;
  !acc

(* {1 NN math} *)

let softmax t =
  if rank t <> 2 then
    fail "softmax: expected rank 2, got %s" (Shape.to_string t.shape);
  let n = t.shape.(0) and c = t.shape.(1) in
  let out = zeros t.shape in
  let d = t.data and od = out.data in
  for i = 0 to n - 1 do
    let m = ref Float.neg_infinity in
    for j = 0 to c - 1 do
      m := Float.max !m (A.unsafe_get d ((i * c) + j))
    done;
    let z = ref 0.0 in
    for j = 0 to c - 1 do
      let e = Float.exp (A.unsafe_get d ((i * c) + j) -. !m) in
      A.unsafe_set od ((i * c) + j) e;
      z := !z +. e
    done;
    for j = 0 to c - 1 do
      A.unsafe_set od ((i * c) + j) (A.unsafe_get od ((i * c) + j) /. !z)
    done
  done;
  out

let log_softmax t =
  if rank t <> 2 then
    fail "log_softmax: expected rank 2, got %s" (Shape.to_string t.shape);
  let n = t.shape.(0) and c = t.shape.(1) in
  let out = zeros t.shape in
  let d = t.data and od = out.data in
  for i = 0 to n - 1 do
    let m = ref Float.neg_infinity in
    for j = 0 to c - 1 do
      m := Float.max !m (A.unsafe_get d ((i * c) + j))
    done;
    let z = ref 0.0 in
    for j = 0 to c - 1 do
      z := !z +. Float.exp (A.unsafe_get d ((i * c) + j) -. !m)
    done;
    let lse = !m +. Float.log !z in
    for j = 0 to c - 1 do
      A.unsafe_set od ((i * c) + j) (A.unsafe_get d ((i * c) + j) -. lse)
    done
  done;
  out

(* {1 Printing} *)

let pp ppf t =
  let n = numel t in
  let budget = 16 in
  Format.fprintf ppf "Tensor%s [" (Shape.to_string t.shape);
  for i = 0 to min n budget - 1 do
    if i > 0 then Format.fprintf ppf ", ";
    Format.fprintf ppf "%g" t.data.{i}
  done;
  if n > budget then Format.fprintf ppf ", ...";
  Format.fprintf ppf "]"

let to_string t = Format.asprintf "%a" pp t

let batch_matmul ?domains a b =
  if rank a <> 3 || rank b <> 3 then
    fail "batch_matmul: expected rank-3 operands, got %s and %s"
      (Shape.to_string a.shape) (Shape.to_string b.shape);
  let bs = a.shape.(0) and m = a.shape.(1) and k = a.shape.(2) in
  if b.shape.(0) <> bs || b.shape.(1) <> k then
    fail "batch_matmul: %s x %s" (Shape.to_string a.shape)
      (Shape.to_string b.shape);
  let n = b.shape.(2) in
  let out =
    S4o_obs.Memory.with_tag S4o_obs.Memory.global "matmul" (fun () ->
        zeros [| bs; m; n |])
  in
  let da = a.data and db = b.data and dc = out.data in
  (* Rows of all batches form one global index space [0, bs*m): each
     worker walks its contiguous span batch by batch, so parallelism does
     not depend on bs and m individually. *)
  let rows lo hi =
    Sanitizer.note_write dc ~lo:(lo * n) ~len:((hi - lo) * n)
      ~who:"batch_matmul out rows";
    Sanitizer.note_read da ~lo:(lo * k) ~len:((hi - lo) * k)
      ~who:"batch_matmul A rows";
    Sanitizer.note_read db ~lo:0 ~len:(bs * k * n) ~who:"batch_matmul B";
    let r = ref lo in
    while !r < hi do
      let batch = !r / m in
      let rlo = !r mod m in
      let rhi = min m (rlo + (hi - !r)) in
      matmul_rows ~n ~k da (batch * m * k) db (batch * k * n) dc (batch * m * n)
        rlo rhi;
      r := !r + (rhi - rlo)
    done
  in
  if bs * m * n * k <= serial_cutoff then rows 0 (bs * m)
  else Pool.run ?domains ~n:(bs * m) rows;
  out

let batch_transpose t =
  if rank t <> 3 then
    fail "batch_transpose: expected rank 3, got %s" (Shape.to_string t.shape);
  permute t [| 0; 2; 1 |]
