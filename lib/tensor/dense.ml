module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

(* [data] is exactly [numel] long. *)
type t = { shape : Shape.t; data : buffer }

exception Shape_error = Shape.Shape_error

let fail fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

(* Every tensor buffer in the library is allocated here, so this is the
   single hook for off-heap memory accounting. When the global tracker is
   off (the default) the cost is one load and branch; when on, the buffer
   is charged to [tag] (by default the current attribution tag) and a GC
   finaliser credits the free. The finaliser captures the tracker
   generation so a buffer that dies after [Memory.reset] is dropped instead
   of corrupting the next measurement's balance. *)
let alloc_fresh ?tag n : buffer =
  let data = A.create Bigarray.float64 Bigarray.c_layout n in
  let mem = S4o_obs.Memory.global in
  if S4o_obs.Memory.enabled mem then begin
    let bytes = 8 * n in
    let tag =
      match tag with Some t -> t | None -> S4o_obs.Memory.current_tag mem
    in
    let gen = S4o_obs.Memory.generation mem in
    S4o_obs.Memory.alloc mem ~tag bytes;
    Gc.finalise (fun _ -> S4o_obs.Memory.free_gen mem ~gen ~tag bytes) data
  end;
  data

(* {2 Per-domain buffers}

   Each domain keeps two kinds of buffer besides its tensors'. Its
   [scratch] cache holds the buffers kernels take and give back within one
   call ({!with_scratch_buffer}). Its [slab] holds a compiled program's
   intermediates while the program runs ({!with_slab}): the compiler has
   given each one a region of it. [dest] is the view {!into} has armed as
   the next allocation's buffer, and [fresh] counts the buffers allocated
   fresh on the domain. *)
type domain_buffers = {
  mutable scratch : buffer list;
  mutable slab : buffer;
  mutable slab_busy : bool;
  mutable dest : buffer;
  mutable armed : bool;
  mutable fresh : int;
}

let empty : buffer = A.create Bigarray.float64 Bigarray.c_layout 0

let buffers_key : domain_buffers Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { scratch = []; slab = empty; slab_busy = false; dest = empty; armed = false; fresh = 0 })

let fresh_allocations () = (Domain.DLS.get buffers_key).fresh

(* The single allocation hook: the armed destination, else a fresh buffer. *)
let alloc n : buffer =
  let d = Domain.DLS.get buffers_key in
  if d.armed then begin
    d.armed <- false;
    if A.dim d.dest <> n then
      invalid_arg
        (Printf.sprintf "Dense.into: %d elements allocated into a %d-element destination" n
           (A.dim d.dest));
    d.dest
  end
  else begin
    d.fresh <- d.fresh + 1;
    alloc_fresh n
  end

let into dest f =
  let d = Domain.DLS.get buffers_key in
  d.dest <- dest;
  d.armed <- true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        d.armed <- false;
        d.dest <- empty)
      f
  in
  if r.data != dest then invalid_arg "Dense.into: the result is not over its destination";
  r

let with_slab n f =
  let d = Domain.DLS.get buffers_key in
  if d.slab_busy then invalid_arg "Dense.with_slab: this domain's slab is in use";
  if A.dim d.slab < n then begin
    d.fresh <- d.fresh + 1;
    (* A quarter over: a program a little larger than this one then fits
       without another slab, which the old one would stay resident beside
       until the GC finalised it. Pages no program uses are never touched,
       so the margin costs address space, not memory. *)
    d.slab <- alloc_fresh ~tag:"slab" (n + (n / 4))
  end;
  d.slab_busy <- true;
  Fun.protect ~finally:(fun () -> d.slab_busy <- false) (fun () -> f d.slab)

let slab_bytes () = 8 * A.dim (Domain.DLS.get buffers_key).slab

(* A tensor labelled [shape] (not copied) over [n] uninitialised elements. *)
let blank shape n = { shape; data = alloc n }

(* {2 Kernel scratch}

   A buffer of at least [n] elements from this domain's scratch cache, for
   the duration of [f]: the best fit among the cached buffers, else a fresh
   one, which replaces the largest cached buffer too small to have served.
   A domain caches as many buffers as its kernels hold at once, so after
   the first call at a size nothing here reaches the GC. With the
   sanitizer armed, a buffer is poisoned with NaN as it goes back, so a
   value read after its release shows up as a wrong number. *)
let with_scratch_buffer n f =
  let a = Domain.DLS.get buffers_key in
  (* the smallest cached buffer that fits, and the largest that does not *)
  let fit = ref None and short = ref None in
  List.iter
    (fun b ->
      if A.dim b >= n then (
        match !fit with Some c when A.dim c <= A.dim b -> () | _ -> fit := Some b)
      else
        match !short with Some c when A.dim c >= A.dim b -> () | _ -> short := Some b)
    a.scratch;
  let drop x = a.scratch <- List.filter (fun y -> y != x) a.scratch in
  let b =
    match (!fit, !short) with
    | Some b, _ ->
        drop b;
        b
    | None, short ->
        Option.iter drop short;
        alloc_fresh ~tag:"scratch" n
  in
  let r = f b in
  if Sanitizer.armed () then A.fill b Float.nan;
  a.scratch <- b :: a.scratch;
  r

let with_scratch shape f =
  Shape.check_valid shape;
  let n = Shape.numel shape in
  with_scratch_buffer n (fun b ->
      f { shape = Array.copy shape; data = (if A.dim b = n then b else A.sub b 0 n) })

(* {1 Creation} *)

let create shape v =
  Shape.check_valid shape;
  let t = blank (Array.copy shape) (Shape.numel shape) in
  A.fill t.data v;
  t

let zeros shape = create shape 0.0
let ones shape = create shape 1.0

(* Uninitialized storage — kernels-only: every element must be written
   before the tensor escapes. *)
let uninit shape =
  Shape.check_valid shape;
  blank (Array.copy shape) (Shape.numel shape)

let scalar v =
  let t = blank [||] 1 in
  A.unsafe_set t.data 0 v;
  t

let of_array shape src =
  Shape.check_valid shape;
  if Array.length src <> Shape.numel shape then
    fail "of_array: %d elements for shape %s" (Array.length src)
      (Shape.to_string shape);
  let t = blank (Array.copy shape) (Array.length src) in
  let data = t.data in
  for i = 0 to Array.length src - 1 do
    A.unsafe_set data i (Array.unsafe_get src i)
  done;
  t

(* Fills in increasing flat order: PRNG-fed initializers consume their
   stream element-by-element and rely on it. *)
let init_flat shape f =
  Shape.check_valid shape;
  let n = Shape.numel shape in
  let t = blank (Array.copy shape) n in
  let data = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set data i (f i)
  done;
  t

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
  let out = blank (Array.copy t.shape) (numel t) in
  A.blit t.data out.data;
  out

let with_shape t new_shape =
  Shape.check_valid new_shape;
  if Shape.numel new_shape <> numel t then
    fail "with_shape: %s has %d elements, tensor has %d"
      (Shape.to_string new_shape) (Shape.numel new_shape) (numel t);
  S4o_obs.Memory.note_view S4o_obs.Memory.global;
  { t with shape = Array.copy new_shape }

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
  let res = blank (Array.copy t.shape) n in
  let out = res.data in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (f (A.unsafe_get d i))
  done;
  res

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
  let res = blank out_shape (Shape.numel out_shape) in
  let out = res.data in
  let da = a.data and db = b.data in
  let idx = Array.make r 0 in
  let n = Shape.numel out_shape in
  for flat = 0 to n - 1 do
    A.unsafe_set out flat
      (f (A.unsafe_get da (Shape.offset sa idx))
         (A.unsafe_get db (Shape.offset sb idx)));
    next_index idx out_shape
  done;
  res

(* {2 Broadcast plans}

   A binary op classifies its operands once, then runs one flat loop.
   [Left]/[Right] names the operand that is broadcast (the small one). *)

type side = Left | Right

(* A big shape seen as [outer; mid; inner] in row-major order, onto which a
   small shape [outer; 1; inner] broadcasts: big element
   [(o*mid + m)*inner + i] pairs with small element [o*inner + i]. *)
type blocks = { outer : int; mid : int; inner : int }

type plan =
  | Same  (** equal shapes *)
  | Scalar of side  (** one element, no more axes than the other side *)
  | Blocks of side * blocks
      (** the small side stretches one run of the big side's axes: a
          channel broadcast [[N;H;W;C] op [C]] (outer = 1), a pooled
          [[N;1;1;C]] or a column [[N;1]] *)
  | Strided  (** anything else: the generic walker *)

(* [small] has no more axes than [big] and, aligned to its right, equals
   [big] on a leading run of axes and a trailing one and is 1 in between;
   axes of extent 1 in [big] do not count. Then [Shape.broadcast big small]
   is [big], split as {!blocks}. *)
let blocks ~small ~big =
  let rs = Shape.rank small and rb = Shape.rank big in
  let ok = ref (rs <= rb) in
  (* 0: in the leading run, 1: in the stretched run, 2: in the trailing run *)
  let phase = ref 0 and outer = ref 1 and mid = ref 1 and inner = ref 1 in
  for i = 0 to rb - 1 do
    let d = big.(i) and j = i - (rb - rs) in
    let s = if j < 0 then 1 else small.(j) in
    if d = 1 then (if s <> 1 then ok := false)
    else if s = d then begin
      if !phase = 1 then phase := 2;
      if !phase = 0 then outer := !outer * d else inner := !inner * d
    end
    else if s = 1 && !phase < 2 then begin
      phase := 1;
      mid := !mid * d
    end
    else ok := false
  done;
  if !ok then Some { outer = !outer; mid = !mid; inner = !inner } else None

(* [b] broadcasts onto [a.shape] as a single constant *)
let scalar_onto a b = numel b = 1 && Shape.rank b.shape <= Shape.rank a.shape

let plan a b =
  if Shape.equal a.shape b.shape then Same
  else if scalar_onto a b then Scalar Right
  else if scalar_onto b a then Scalar Left
  else
    match blocks ~small:b.shape ~big:a.shape with
    | Some bl -> Blocks (Right, bl)
    | None -> (
        match blocks ~small:a.shape ~big:b.shape with
        | Some bl -> Blocks (Left, bl)
        | None -> Strided)

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

(* [if x > 0.0 then y else 0.0] without a branch: the comparison compiles
   to a [cmpsd] mask, which keeps or clears every bit of [y]. A cleared
   [y] is +0.0, as the [if] form gives for [x] = -0.0, -inf or NaN. On
   random-signed data the branch mispredicts half the time, which made
   [relu] cost several times a [mul] over the same elements. *)
let[@inline] where_pos x y =
  let keep = Int64.neg (Int64.of_int (Bool.to_int (x > 0.0))) in
  Int64.float_of_bits (Int64.logand (Int64.bits_of_float y) keep)

let[@inline] eval op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Relu_grad -> where_pos x y
  | Fn f -> f x y

(* For the walker, which takes a closure either way. *)
let closure = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Relu_grad -> fun x y -> eval Relu_grad x y
  | Fn f -> f

(* [big op small] under {!Blocks}, or [small op big] when [swap]. *)
let[@inline] apply_blocks op ~swap big small { outer; mid; inner } =
  let n = numel big in
  let res = blank (Array.copy big.shape) n in
  let out = res.data in
  let dg = big.data and ds = small.data in
  for o = 0 to outer - 1 do
    let so = o * inner in
    for m = 0 to mid - 1 do
      let base = ((o * mid) + m) * inner in
      for i = 0 to inner - 1 do
        let x = A.unsafe_get dg (base + i) and y = A.unsafe_get ds (so + i) in
        A.unsafe_set out (base + i) (if swap then eval op y x else eval op x y)
      done
    done
  done;
  res

(* Runs [op] under [plan a b]. Every path applies [op] to the same operands,
   in the same order, as {!map2_strided}, so results are bit-identical to
   the walker. Operand buffers are bound after [alloc] so they are not
   live across the call (which would spill them and reload per element). *)
let[@inline] apply2 op a b =
  match plan a b with
  | Same ->
      let n = numel a in
      let res = blank (Array.copy a.shape) n in
      let out = res.data in
      let da = a.data and db = b.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op (A.unsafe_get da i) (A.unsafe_get db i))
      done;
      res
  | Scalar Right ->
      let c = A.unsafe_get b.data 0 in
      let n = numel a in
      let res = blank (Array.copy a.shape) n in
      let out = res.data in
      let da = a.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op (A.unsafe_get da i) c)
      done;
      res
  | Scalar Left ->
      let c = A.unsafe_get a.data 0 in
      let n = numel b in
      let res = blank (Array.copy b.shape) n in
      let out = res.data in
      let db = b.data in
      for i = 0 to n - 1 do
        A.unsafe_set out i (eval op c (A.unsafe_get db i))
      done;
      res
  | Blocks (Right, bl) -> apply_blocks op ~swap:false a b bl
  | Blocks (Left, bl) -> apply_blocks op ~swap:true b a bl
  | Strided -> map2_strided (closure op) a b

let map2 f a b = apply2 (Fn f) a b
let add a b = apply2 Add a b
let sub a b = apply2 Sub a b
let mul a b = apply2 Mul a b
let div a b = apply2 Div a b
let relu_grad x g = apply2 Relu_grad x g

let neg t =
  let n = numel t in
  let res = blank (Array.copy t.shape) n in
  let out = res.data in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (-.A.unsafe_get d i)
  done;
  res

let scale alpha t =
  let n = numel t in
  let res = blank (Array.copy t.shape) n in
  let out = res.data in
  let d = t.data in
  for i = 0 to n - 1 do
    A.unsafe_set out i (alpha *. A.unsafe_get d i)
  done;
  res

let relu t =
  let n = numel t in
  let res = blank (Array.copy t.shape) n in
  let out = res.data in
  let d = t.data in
  for i = 0 to n - 1 do
    let x = A.unsafe_get d i in
    A.unsafe_set out i (where_pos x x)
  done;
  res

let add_scalar c = map (fun x -> c +. x)
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

let bit_equal a b =
  Shape.equal a.shape b.shape
  &&
  let da = a.data and db = b.data in
  let rec from i =
    i >= numel a
    || Int64.equal
         (Int64.bits_of_float (A.unsafe_get da i))
         (Int64.bits_of_float (A.unsafe_get db i))
       && from (i + 1)
  in
  from 0

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
  let mix v = h := ((!h * 31) lxor v) land max_int in
  for i = 0 to n - 1 do
    (* both 32-bit halves: an OCaml int would drop bit 63, the sign *)
    let bits = Int64.bits_of_float (A.unsafe_get d i) in
    mix (Int64.to_int (Int64.shift_right_logical bits 32));
    mix (Int64.to_int bits land 0xFFFF_FFFF)
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

(* Adds [t] into [out], whose shape is [t]'s with the summed axes kept at
   size 1. *)
let sum_into t out =
  let out_shape_kept = out.shape in
  let d = t.data and od = out.data in
  match blocks ~small:out_shape_kept ~big:t.shape with
  | Some { outer; mid; inner } ->
      (* The reduced axes are one run: output element [o*inner + j] sums
         rows [m] of [inner] elements. It still receives its inputs in
         increasing flat order, onto the same +0.0 start, as in the walk
         below. Four rows go in per pass, added left to right, so the sums
         are bit-identical to it. *)
      for o = 0 to outer - 1 do
        let ob = o * inner and ib = o * mid * inner in
        let r = ref 0 in
        while !r + 4 <= mid do
          let b0 = ib + (!r * inner) in
          let b1 = b0 + inner in
          let b2 = b1 + inner in
          let b3 = b2 + inner in
          for j = 0 to inner - 1 do
            A.unsafe_set od (ob + j)
              (A.unsafe_get od (ob + j)
              +. A.unsafe_get d (b0 + j)
              +. A.unsafe_get d (b1 + j)
              +. A.unsafe_get d (b2 + j)
              +. A.unsafe_get d (b3 + j))
          done;
          r := !r + 4
        done;
        while !r < mid do
          let b0 = ib + (!r * inner) in
          for j = 0 to inner - 1 do
            A.unsafe_set od (ob + j) (A.unsafe_get od (ob + j) +. A.unsafe_get d (b0 + j))
          done;
          incr r
        done
      done
  | None ->
      let st_out = Shape.strides out_shape_kept in
      let r = rank t in
      let idx = Array.make r 0 in
      for flat = 0 to numel t - 1 do
        (* the output offset ignores reduced axes because their kept size is 1 *)
        let off = ref 0 in
        for i = 0 to r - 1 do
          if out_shape_kept.(i) <> 1 then off := !off + (st_out.(i) * idx.(i))
        done;
        A.unsafe_set od !off (A.unsafe_get od !off +. A.unsafe_get d flat);
        next_index idx t.shape
      done

let sum_axes ?(keep_dims = false) t axes =
  let out = zeros (Shape.reduce_axes ~keep_dims:true t.shape axes) in
  sum_into t out;
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

(* The one-operand form of {!map2_strided}: gathers [t] through
   stride-0 stretched dimensions. *)
let broadcast_strided t target =
  let r = Shape.rank target in
  let st = aligned_strides t.shape r in
  let n = Shape.numel target in
  let res = blank (Array.copy target) n in
  let out = res.data in
  let d = t.data in
  let idx = Array.make r 0 in
  for flat = 0 to n - 1 do
    A.unsafe_set out flat (A.unsafe_get d (Shape.offset st idx));
    next_index idx target
  done;
  res

let broadcast_to t target =
  let out = Shape.broadcast t.shape target in
  if not (Shape.equal out target) then
    fail "broadcast_to: %s does not broadcast to %s" (Shape.to_string t.shape)
      (Shape.to_string target);
  if Shape.equal t.shape target then copy t
  else if numel t = 1 then create target (A.unsafe_get t.data 0)
  else
    match blocks ~small:t.shape ~big:target with
    | Some { outer = 1; _ } ->
        (* Tile: copy [t] into the first row, then keep doubling the filled
           prefix with [blit] — log2(rows) memcpys instead of a per-row or
           per-element loop. *)
        let m = numel t and n = Shape.numel target in
        let res = blank (Array.copy target) n in
        let out = res.data in
        if n > 0 then begin
          A.blit t.data (A.sub out 0 m);
          let filled = ref m in
          while !filled < n do
            let len = min !filled (n - !filled) in
            A.blit (A.sub out 0 len) (A.sub out !filled len);
            filled := !filled + len
          done
        end;
        res
    | Some { outer; mid; inner } ->
        let res = blank (Array.copy target) (Shape.numel target) in
        let out = res.data and d = t.data in
        for o = 0 to outer - 1 do
          let so = o * inner in
          for m = 0 to mid - 1 do
            let base = ((o * mid) + m) * inner in
            for i = 0 to inner - 1 do
              A.unsafe_set out (base + i) (A.unsafe_get d (so + i))
            done
          done
        done;
        res
    | None -> broadcast_strided t target

let unbroadcast t target =
  if Shape.equal t.shape target then t
  else begin
    let r = rank t and rt = Shape.rank target in
    (* sum away leading extra dimensions *)
    let lead = List.init (r - rt) (fun i -> i) in
    let led_shape = Shape.reduce_axes ~keep_dims:false t.shape lead in
    (* then sum over stretched (size-1) dimensions, keeping dims *)
    let axes = ref [] in
    Array.iteri (fun i d -> if d = 1 && led_shape.(i) <> 1 then axes := i :: !axes) target;
    (* The kernel allocates only its result: when both sums run, the
       leading one goes to kernel scratch. A sum made here takes the target
       shape without a copy; [with_shape] still rejects a target whose
       element count differs. *)
    match (lead, !axes) with
    | [], [] -> reshape t target
    | _, [] -> with_shape (sum_axes t lead) target
    | [], axes -> with_shape (sum_axes ~keep_dims:true t axes) target
    | _, axes ->
        with_scratch (Shape.reduce_axes ~keep_dims:true t.shape lead) (fun led ->
            A.fill led.data 0.0;
            sum_into t led;
            with_shape (sum_axes ~keep_dims:true { led with shape = led_shape } axes) target)
  end

(* Cache-tiled: a [transpose_tile]-square block of the source is read row
   by row while its image in the output is written column by column, so
   both sides stay within a few dozen cache lines per tile. A pure copy, so
   bit-identical to the element-wise definition. *)
let transpose_tile = 32

let transpose_into t dst =
  if rank t <> 2 then
    fail "transpose: expected rank 2, got %s" (Shape.to_string t.shape);
  let m = t.shape.(0) and n = t.shape.(1) in
  if not (Shape.equal dst.shape [| n; m |]) then
    fail "transpose_into: %s into %s" (Shape.to_string t.shape)
      (Shape.to_string dst.shape);
  let d = t.data and out = dst.data in
  let i0 = ref 0 in
  while !i0 < m do
    let i1 = min m (!i0 + transpose_tile) in
    let j0 = ref 0 in
    while !j0 < n do
      let j1 = min n (!j0 + transpose_tile) in
      for i = !i0 to i1 - 1 do
        let src = i * n in
        for j = !j0 to j1 - 1 do
          A.unsafe_set out ((j * m) + i) (A.unsafe_get d (src + j))
        done
      done;
      j0 := j1
    done;
    i0 := i1
  done

let transpose t =
  if rank t <> 2 then
    fail "transpose: expected rank 2, got %s" (Shape.to_string t.shape);
  let out = blank [| t.shape.(1); t.shape.(0) |] (numel t) in
  transpose_into t out;
  out

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

(* Scratch for {!matmul_rows}'s packed B panel, one per domain, large
   enough for any block: 4-column quads laid out so the micro-kernel
   reads 4 consecutive floats per p step (unit stride instead of a +n walk
   through B — each p then consumes half a cache line sequentially and the
   hardware prefetcher keeps up). Quad q of a panel lives at
   [q*kl*4 + (p-p0)*4 + t]. A plain float array keeps the reads unboxed.
   [matmul_rows] packs a block and reads it back without calling out, so
   every call on a domain can share that domain's array, and the GC only
   ever sees one allocation per domain. *)
let pack_key = Domain.DLS.new_key (fun () -> Array.make (kc_block * nc_block) 0.0)

(* How {!matmul_rows} reads A. [Row_major]: A[i][p] at [ao + i*k + p].
   [Gathered]: at [ao + rows.(i) + cols.(p)], an A gathered from a buffer
   through a row-base and a column-offset table (an implicit-GEMM
   convolution's patch matrix, read straight out of the padded image). The
   kernel is always inlined with a constant tag, so each instance's loads
   compile to one form, as {!binop} does for {!apply2}. *)
type access = Row_major | Gathered

let no_offsets = [||]

let[@inline] a_row access ~k rows i =
  match access with Row_major -> i * k | Gathered -> Array.unsafe_get rows i

(* Adds the accumulators of one quad to C at [c]: only the first [w] when
   the quad is a partial last one. *)
let[@inline] store_quad (dc : buffer) c w x0 x1 x2 x3 =
  A.unsafe_set dc c (A.unsafe_get dc c +. x0);
  if w > 1 then A.unsafe_set dc (c + 1) (A.unsafe_get dc (c + 1) +. x1);
  if w > 2 then A.unsafe_set dc (c + 2) (A.unsafe_get dc (c + 2) +. x2);
  if w > 3 then A.unsafe_set dc (c + 3) (A.unsafe_get dc (c + 3) +. x3)

(* Accumulate rows [lo, hi) of the product A[m,k] x B[k,n] into C. A is
   read as [access] says; [bo]/[co] are flat base offsets of B and C
   (batch_matmul reuses the kernel per batch). C must be zeroed by the
   caller.

   B is packed per [kc_block] x [nc_block] block into 4-column quads, a
   partial last quad padded with zero columns, so every column goes through
   the 2x4 register micro-kernel (a 1x4 one for an odd last row); a padded
   column's products are computed and dropped.

   Determinism: for every output element the accumulation order is "kc
   blocks ascending, p ascending within the block" — a local accumulator
   per (element, block) is folded into C once per block. That order is
   independent of [lo]/[hi], of the quad an element sits in and of how A
   is read, so any row partition (any domain count) and every A layout
   produce bit-identical results. *)
let[@inline] matmul_rows access ~n ~k ~rows ~cols (da : buffer) ao
    (db : buffer) bo (dc : buffer) co lo hi =
  let pack = Domain.DLS.get pack_key in
  let pp = ref 0 in
  while !pp < k do
    let p0 = !pp in
    let p1 = min k (p0 + kc_block) in
    let kl4 = (p1 - p0) * 4 in
    let jj = ref 0 in
    while !jj < n do
      let j0 = !jj in
      let j1 = min n (j0 + nc_block) in
      let width = j1 - j0 in
      let full = width / 4 in
      let nquads = (width + 3) / 4 in
      (* pack: read B row-major (sequential), scatter into micro-panels.
         Quad q of the block lives at [q*kl4 + (p-p0)*4 + t], so the
         micro-kernel reads 4 consecutive floats per p step. *)
      for p = p0 to p1 - 1 do
        let src = bo + (p * n) + j0 in
        let dp = (p - p0) * 4 in
        for q = 0 to full - 1 do
          let s = src + (q * 4) and d = (q * kl4) + dp in
          Array.unsafe_set pack d (A.unsafe_get db s);
          Array.unsafe_set pack (d + 1) (A.unsafe_get db (s + 1));
          Array.unsafe_set pack (d + 2) (A.unsafe_get db (s + 2));
          Array.unsafe_set pack (d + 3) (A.unsafe_get db (s + 3))
        done;
        if nquads > full then begin
          let d = (full * kl4) + dp in
          for t = 0 to 3 do
            let c = (full * 4) + t in
            Array.unsafe_set pack (d + t)
              (if c < width then A.unsafe_get db (src + c) else 0.0)
          done
        end
      done;
      let i = ref lo in
      (* 2x4 register micro-kernel *)
      while !i + 1 < hi do
        let ia = ao + a_row access ~k rows !i in
        let ib = ao + a_row access ~k rows (!i + 1) in
        let ca = co + (!i * n) in
        let cb = ca + n in
        for q = 0 to nquads - 1 do
          let acc00 = ref 0.0 and acc01 = ref 0.0 in
          let acc02 = ref 0.0 and acc03 = ref 0.0 in
          let acc10 = ref 0.0 and acc11 = ref 0.0 in
          let acc12 = ref 0.0 and acc13 = ref 0.0 in
          (* strength-reduced cursors: +1 along row-major A rows, +4
             through the packed micro-panel *)
          let ap = ref (ia + p0) and aq = ref (ib + p0) in
          let bb = ref (q * kl4) in
          for p = p0 to p1 - 1 do
            let o = match access with Row_major -> 0 | Gathered -> Array.unsafe_get cols p in
            let a0 =
              A.unsafe_get da (match access with Row_major -> !ap | Gathered -> ia + o)
            in
            let a1 =
              A.unsafe_get da (match access with Row_major -> !aq | Gathered -> ib + o)
            in
            (match access with
            | Row_major ->
                incr ap;
                incr aq
            | Gathered -> ());
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
            bb := bi + 4
          done;
          let j = j0 + (q * 4) in
          let w = j1 - j in
          store_quad dc (ca + j) w !acc00 !acc01 !acc02 !acc03;
          store_quad dc (cb + j) w !acc10 !acc11 !acc12 !acc13
        done;
        i := !i + 2
      done;
      (* row remainder *)
      if !i < hi then begin
        let ia = ao + a_row access ~k rows !i in
        let ca = co + (!i * n) in
        for q = 0 to nquads - 1 do
          let acc0 = ref 0.0 and acc1 = ref 0.0 in
          let acc2 = ref 0.0 and acc3 = ref 0.0 in
          let ap = ref (ia + p0) in
          let bb = ref (q * kl4) in
          for p = p0 to p1 - 1 do
            let a0 =
              A.unsafe_get da
                (match access with
                | Row_major -> !ap
                | Gathered -> ia + Array.unsafe_get cols p)
            in
            incr ap;
            let bi = !bb in
            acc0 := !acc0 +. (a0 *. Array.unsafe_get pack bi);
            acc1 := !acc1 +. (a0 *. Array.unsafe_get pack (bi + 1));
            acc2 := !acc2 +. (a0 *. Array.unsafe_get pack (bi + 2));
            acc3 := !acc3 +. (a0 *. Array.unsafe_get pack (bi + 3));
            bb := bi + 4
          done;
          let j = j0 + (q * 4) in
          store_quad dc (ca + j) (j1 - j) !acc0 !acc1 !acc2 !acc3
        done
      end;
      jj := j1
    done;
    pp := p1
  done

(* The row-major instance, behind every product of a materialized A. *)
let matmul_rows_nn ~n ~k da ao db bo dc co lo hi =
  matmul_rows Row_major ~n ~k ~rows:no_offsets ~cols:no_offsets da ao db bo dc
    co lo hi

let product m n =
  S4o_obs.Memory.with_tag S4o_obs.Memory.global "matmul" (fun () ->
      zeros [| m; n |])

(* Runs [rows lo hi] over [0, m): serially when [serial], else over the
   pool, with [notes lo hi] declaring each job's accesses. *)
let partition ?domains ~m ~serial ~notes rows =
  if serial then rows 0 m
  else
    Pool.run ?domains ~n:m (fun lo hi ->
        notes lo hi;
        rows lo hi)

(* Floats per product panel in {!matmul_consume}: 128 KB, so a panel stays
   in L2 while the micro-kernel sweeps it. One size for every [n] lets
   every streamed product on a domain share one scratch buffer. *)
let panel_floats = 16384

(* Streamed and gathered products split over the pool only when every job
   gets at least a panel's worth of rows. Below that a job is a few tens of
   microseconds of work, and waiting for a second domain to be scheduled (a
   small LeNet conv at batch 1 could stall for a millisecond on a loaded
   host) costs more than the split saves. *)
let panels_serial ~m ~panel_rows ~work =
  work <= serial_cutoff || m < 2 * panel_rows

(* {!matmul_gather}'s offset tables, one pair per domain: the bases of up
   to [kc_block] rows of A and the offsets of one [kc_block] of its
   columns. *)
let offsets_key =
  Domain.DLS.new_key (fun () -> (Array.make kc_block 0, Array.make kc_block 0))

let matmul_gather ?domains ~m ~k ~rows ~cols a b =
  if rank b <> 2 || b.shape.(0) <> k then
    fail "matmul_gather: [%d; %d] x %s" m k (Shape.to_string b.shape);
  let n = b.shape.(1) in
  let out = product m n in
  let db = b.data and dc = out.data in
  let notes lo hi =
    Sanitizer.note_write dc ~lo:(lo * n) ~len:((hi - lo) * n)
      ~who:"matmul_gather out rows";
    Sanitizer.note_read a ~lo:0 ~len:(A.dim a) ~who:"matmul_gather A source";
    Sanitizer.note_read db ~lo:0 ~len:(k * n) ~who:"matmul_gather B"
  in
  (* A job walks its rows [kc_block] at a time and, for each such strip,
     A's columns one [kc_block] at a time, ascending: [matmul_rows] folds
     each block's accumulator into C once, as it does over the whole [k] in
     [matmul], so every element is bit-identical to [matmul] of the
     materialized A. *)
  let panel_rows = max 1 (panel_floats / max 1 k) in
  let serial = panels_serial ~m ~panel_rows ~work:(m * n * k) in
  partition ?domains ~m ~serial ~notes (fun lo hi ->
      let rt, ct = Domain.DLS.get offsets_key in
      let r = ref lo in
      while !r < hi do
        let r1 = min hi (!r + kc_block) in
        rows !r r1 rt;
        let p = ref 0 in
        while !p < k do
          let p1 = min k (!p + kc_block) in
          cols !p p1 ct;
          matmul_rows Gathered ~n ~k:(p1 - !p) ~rows:rt ~cols:ct a 0 db
            (!p * n) dc (!r * n) 0 (r1 - !r);
          p := p1
        done;
        r := r1
      done);
  out

let check_matmul name a b =
  if rank a <> 2 || rank b <> 2 then
    fail "%s: expected rank-2 operands, got %s and %s" name
      (Shape.to_string a.shape) (Shape.to_string b.shape)

let matmul ?domains a b =
  check_matmul "matmul" a b;
  let m = a.shape.(0) and k = a.shape.(1) in
  if k <> b.shape.(0) then
    fail "matmul: inner dimensions %d and %d differ" k b.shape.(0);
  let n = b.shape.(1) in
  let out = product m n in
  let da = a.data and db = b.data and dc = out.data in
  let notes lo hi =
    Sanitizer.note_write dc ~lo:(lo * n) ~len:((hi - lo) * n)
      ~who:"matmul out rows";
    Sanitizer.note_read da ~lo:(lo * k) ~len:((hi - lo) * k)
      ~who:"matmul A rows";
    Sanitizer.note_read db ~lo:0 ~len:(k * n) ~who:"matmul B"
  in
  let serial = m * n * k <= serial_cutoff in
  partition ?domains ~m ~serial ~notes (fun lo hi ->
      matmul_rows_nn ~n ~k da 0 db 0 dc 0 lo hi);
  out

let matmul_consume ?domains ~grain ~consume a b =
  check_matmul "matmul_consume" a b;
  let m = a.shape.(0) and k = a.shape.(1) in
  if k <> b.shape.(0) then
    fail "matmul_consume: inner dimensions %d and %d differ" k b.shape.(0);
  if grain < 1 || m mod grain <> 0 then
    fail "matmul_consume: %d rows do not split into units of %d" m grain;
  let n = b.shape.(1) in
  let da = a.data and db = b.data in
  let panel_rows = max 1 (panel_floats / max 1 n) in
  let notes ulo uhi =
    Sanitizer.note_read da ~lo:(ulo * grain * k)
      ~len:((uhi - ulo) * grain * k) ~who:"matmul_consume A rows";
    Sanitizer.note_read db ~lo:0 ~len:(k * n) ~who:"matmul_consume B"
  in
  (* Jobs own whole units; within a job, panels go to [consume] in
     ascending row order. Each panel row starts from +0.0, as a row of
     [matmul]'s zeroed output does, so its bits are [matmul]'s. *)
  let serial = panels_serial ~m ~panel_rows ~work:(m * n * k) in
  partition ?domains ~m:(m / grain) ~serial ~notes (fun ulo uhi ->
      let lo = ulo * grain and hi = uhi * grain in
      with_scratch_buffer (max panel_floats n) (fun panel ->
          let r = ref lo in
          while !r < hi do
            let r1 = min hi (!r + panel_rows) in
            for i = 0 to ((r1 - !r) * n) - 1 do
              A.unsafe_set panel i 0.0
            done;
            matmul_rows_nn ~n ~k da (!r * k) db 0 panel 0 0 (r1 - !r);
            consume !r r1 panel;
            r := r1
          done))

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
      matmul_rows_nn ~n ~k da (batch * m * k) db (batch * k * n)
        dc (batch * m * n) rlo rhi;
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
