module A = Bigarray.Array1

type padding = Same | Valid

let fail fmt = Format.kasprintf (fun s -> raise (Shape.Shape_error s)) fmt

let out_dim padding ~size ~kernel ~stride =
  match padding with
  | Same -> ((size - 1) / stride) + 1
  | Valid -> if size < kernel then 0 else ((size - kernel) / stride) + 1

let pad_amounts padding ~size ~kernel ~stride =
  match padding with
  | Valid -> (0, 0)
  | Same ->
      let out = out_dim Same ~size ~kernel ~stride in
      let total = max 0 (((out - 1) * stride) + kernel - size) in
      let before = total / 2 in
      (before, total - before)

let check_rank4 ctx t =
  if Dense.rank t <> 4 then
    fail "%s: expected rank-4 NHWC tensor, got %s" ctx
      (Shape.to_string (Dense.shape t))

(* Same threshold as the matmul kernel: below this many touched elements a
   stage runs in the calling domain. *)
let serial_cutoff = 1 lsl 16

let maybe_parallel ?domains ~work ~n f =
  if work <= serial_cutoff then f 0 n else Pool.run ?domains ~n f

(* The geometry every conv kernel shares. Patch rows are indexed
   [r = (b*oh + oy)*ow + ox]; patch columns [(ky*kw + kx)*cin + c]. In NHWC
   the [cin] innermost span of both the input and the patch row is
   contiguous, so im2col and col2im move whole spans. *)
type geom = {
  n : int;
  h : int;
  w : int;
  cin : int;
  kh : int;
  kw : int;
  oh : int;
  ow : int;
  sh : int;
  sw : int;
  ph : int;
  pw : int;
}

let geom ~stride ~padding ~ishape ~kh ~kw =
  let sh, sw = stride in
  let n = ishape.(0) and h = ishape.(1) and w = ishape.(2) and cin = ishape.(3) in
  let oh = out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim padding ~size:w ~kernel:kw ~stride:sw in
  let ph, _ = pad_amounts padding ~size:h ~kernel:kh ~stride:sh in
  let pw, _ = pad_amounts padding ~size:w ~kernel:kw ~stride:sw in
  { n; h; w; cin; kh; kw; oh; ow; sh; sw; ph; pw }

(* A 1x1 stride-1 unpadded convolution is exactly a matmul of the flattened
   input: the patch matrix would be a copy of it. *)
let is_pointwise g =
  g.kh = 1 && g.kw = 1 && g.sh = 1 && g.sw = 1 && g.ph = 0 && g.pw = 0

(* The output position [(b, oy, ox)] of patch row [r = (b*oh + oy)*ow + ox],
   stepped row by row: one division per run of rows instead of four per
   row, which for LeNet conv1 (25 floats a row) cost as much as the copy. *)
type cursor = { mutable b : int; mutable oy : int; mutable ox : int }

let cursor g r =
  (* an empty output (oh*ow = 0) has no rows: only r = 0 can arrive *)
  if r = 0 then { b = 0; oy = 0; ox = 0 }
  else { b = r / (g.oh * g.ow); oy = r / g.ow mod g.oh; ox = r mod g.ow }

let[@inline] advance g c =
  c.ox <- c.ox + 1;
  if c.ox = g.ow then begin
    c.ox <- 0;
    c.oy <- c.oy + 1;
    if c.oy = g.oh then begin
      c.oy <- 0;
      c.b <- c.b + 1
    end
  end

(* Span moves for im2col. A span is [kw*cin] floats or fewer (5 for LeNet
   conv1), so a [Bigarray.Array1.sub] proxy per span would cost more than
   the copy: these are plain loops. *)
let[@inline] zero_span (pd : Dense.buffer) off len =
  for i = off to off + len - 1 do
    A.unsafe_set pd i 0.0
  done

let[@inline] copy_span (id : Dense.buffer) src (pd : Dense.buffer) dst len =
  for i = 0 to len - 1 do
    A.unsafe_set pd (dst + i) (A.unsafe_get id (src + i))
  done

(* Zero the columns [a, b) of a patch row that fall in the window
   [c0, c1); column [c] is at [base + c] in [pd]. *)
let[@inline] zero_clipped (pd : Dense.buffer) base ~c0 ~c1 a b =
  let a = Int.max a c0 and b = Int.min b c1 in
  if b > a then zero_span pd (base + a) (b - a)

(* Write columns [c0, c1) of patch rows [lo, hi) into [pd], element
   [(r, c)] at [(r - first) * (c1 - c0) + c - c0]. Every element is written
   exactly once — image data as contiguous span copies, out-of-image
   (padding) columns as explicit zero spans — so [pd] may start
   uninitialized. *)
let fill_patch_strip g (id : Dense.buffer) (pd : Dense.buffer) ~first ~c0 ~c1 lo hi =
  let { h; w; cin; kh; kw; sh; sw; ph; pw; _ } = g in
  let span = kw * cin in
  (* the ky rows of the window: each is [span] consecutive columns *)
  let ky0 = c0 / span and ky1 = Int.min kh (((c1 - 1) / span) + 1) in
  let pos = cursor g lo in
  for r = lo to hi - 1 do
    let b = pos.b and oy = pos.oy and ox = pos.ox in
    advance g pos;
    (* column [c] of the row lands at [base + c] *)
    let base = ((r - first) * (c1 - c0)) - c0 in
    (* the in-image kx range: consecutive kx read consecutive input
       columns at any stride, so it is one contiguous span of
       (kx1-kx0)*cin floats on both sides, with zero fringes for the
       padding columns *)
    let ix0 = (ox * sw) - pw in
    let kx0 = Int.min kw (Int.max 0 (-ix0)) in
    let kx1 = Int.max kx0 (Int.min kw (w - ix0)) in
    for ky = ky0 to ky1 - 1 do
      let iy = (oy * sh) + ky - ph in
      let k0 = ky * span in
      if iy < 0 || iy >= h then zero_clipped pd base ~c0 ~c1 k0 (k0 + span)
      else begin
        let a = k0 + (kx0 * cin) and z = k0 + (kx1 * cin) in
        zero_clipped pd base ~c0 ~c1 k0 a;
        let a' = Int.max a c0 and z' = Int.min z c1 in
        if z' > a' then
          copy_span id
            (((((b * h) + iy) * w) + ix0 + kx0) * cin + a' - a)
            pd (base + a') (z' - a');
        zero_clipped pd base ~c0 ~c1 z (k0 + span)
      end
    done
  done

let conv2d ?domains ?(stride = (1, 1)) ~padding input filter =
  check_rank4 "conv2d input" input;
  check_rank4 "conv2d filter" filter;
  let ishape = Dense.shape input and fshape = Dense.shape filter in
  let kh = fshape.(0) and kw = fshape.(1) and fcin = fshape.(2) and cout = fshape.(3) in
  if ishape.(3) <> fcin then
    fail "conv2d: input channels %d vs filter channels %d" ishape.(3) fcin;
  let g = geom ~stride ~padding ~ishape ~kh ~kw in
  let rows = g.n * g.oh * g.ow in
  let cols = kh * kw * g.cin in
  let filter_mat = Dense.with_shape filter [| cols; cout |] in
  let out =
    if is_pointwise g then
      Dense.matmul ?domains (Dense.with_shape input [| rows; cols |]) filter_mat
    else begin
      (* im2col one cache-sized panel of patch rows at a time, straight
         into the matmul: the patch matrix is never materialized *)
      let id = Dense.unsafe_data input in
      Dense.matmul_panels ?domains ~m:rows ~k:cols filter_mat
        ~fill:(fun lo hi panel ->
          Sanitizer.note_read id ~lo:0 ~len:(A.dim id) ~who:"im2col input";
          fill_patch_strip g id panel ~first:lo ~c0:0 ~c1:cols lo hi)
    end
  in
  Dense.with_shape out [| g.n; g.oh; g.ow; cout |]

(* dL/dfilter = patches^T x grad: [cols; rows] x [rows; cout]. The patch
   matrix is never materialized: each pool job fills a strip of its columns
   one panel of 128-row reduction blocks at a time, and the transposed-
   operand matmul folds each panel into [dfilter] while it is in cache.
   The blocks arrive in ascending order, so every element keeps
   [Dense.matmul_tn]'s accumulation order for any domain count. *)
let conv2d_backward_filter ?domains ?(stride = (1, 1)) ~padding ~filter_shape
    input grad =
  check_rank4 "conv2d_backward_filter input" input;
  check_rank4 "conv2d_backward_filter grad" grad;
  let ishape = Dense.shape input in
  let kh = filter_shape.(0) and kw = filter_shape.(1) and cout = filter_shape.(3) in
  let g = geom ~stride ~padding ~ishape ~kh ~kw in
  let rows = g.n * g.oh * g.ow in
  let cols = kh * kw * g.cin in
  let grad_mat = Dense.with_shape grad [| rows; cout |] in
  let dfilter =
    if is_pointwise g then
      Dense.matmul_tn ?domains (Dense.with_shape input [| rows; cols |]) grad_mat
    else begin
      let id = Dense.unsafe_data input in
      Dense.matmul_tn_panels ?domains ~k:rows ~m:cols grad_mat
        ~fill:(fun lo hi c0 c1 panel ->
          Sanitizer.note_read id ~lo:0 ~len:(A.dim id) ~who:"im2col input";
          fill_patch_strip g id panel ~first:lo ~c0 ~c1 lo hi)
    end
  in
  Dense.with_shape dfilter filter_shape

(* dL/dinput: dpatches = grad x filter^T, then col2im scatter-adds each
   patch row back into the input image. The dpatches rows arrive one
   cache-sized panel at a time and are scattered at once, so the
   [rows; cols] matrix is never materialized. Patch rows of one batch
   image overlap in the input, so the work splits over batch images. *)
let conv2d_backward_input ?domains ?(stride = (1, 1)) ~padding ~input_shape
    filter grad =
  check_rank4 "conv2d_backward_input grad" grad;
  let fshape = Dense.shape filter in
  let kh = fshape.(0) and kw = fshape.(1) and cout = fshape.(3) in
  let g = geom ~stride ~padding ~ishape:input_shape ~kh ~kw in
  let { n; h; w; cin; oh; ow; sh; sw; ph; pw; _ } = g in
  let rows = n * oh * ow in
  let cols = kh * kw * cin in
  let grad_mat = Dense.with_shape grad [| rows; cout |] in
  let dinput = Dense.zeros input_shape in
  let dd = Dense.unsafe_data dinput in
  let image = max 1 (oh * ow) in
  let scatter lo hi (pd : Dense.buffer) =
    let blo = lo / image and bhi = ((hi - 1) / image) + 1 in
    Sanitizer.note_write dd ~lo:(blo * h * w * cin)
      ~len:((bhi - blo) * h * w * cin) ~who:"col2im input batches";
    let pos = cursor g lo in
    for r = lo to hi - 1 do
      let b = pos.b and oy = pos.oy and ox = pos.ox in
      advance g pos;
      let rbase = (r - lo) * cols in
      (* the same in-image kx span as im2col: within one patch row every
         input element receives at most one addend, so adding the span in
         one loop keeps each element's addition order *)
      let ix0 = (ox * sw) - pw in
      let kx0 = Int.min kw (Int.max 0 (-ix0)) in
      let kx1 = Int.max kx0 (Int.min kw (w - ix0)) in
      for ky = 0 to kh - 1 do
        let iy = (oy * sh) + ky - ph in
        if iy >= 0 && iy < h then begin
          let dst = ((((b * h) + iy) * w) + ix0 + kx0) * cin in
          let src = rbase + (((ky * kw) + kx0) * cin) in
          for i = 0 to ((kx1 - kx0) * cin) - 1 do
            A.unsafe_set dd (dst + i)
              (A.unsafe_get dd (dst + i) +. A.unsafe_get pd (src + i))
          done
        end
      done
    done
  in
  (* the transposed filter is kernel scratch *)
  Dense.with_scratch [| cout; cols |] (fun filter_t ->
      Dense.transpose_into (Dense.with_shape filter [| cols; cout |]) filter_t;
      Dense.matmul_consume ?domains ~grain:image ~consume:scatter grad_mat filter_t);
  dinput

let pool_out_shape ishape (kh, kw) (sh, sw) =
  let n = ishape.(0) and h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oh = out_dim Valid ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim Valid ~size:w ~kernel:kw ~stride:sw in
  [| n; oh; ow; c |]

let avg_pool2d ~size ~stride input =
  check_rank4 "avg_pool2d" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oshape = pool_out_shape ishape size stride in
  let n = oshape.(0) and oh = oshape.(1) and ow = oshape.(2) in
  let out = Dense.zeros oshape in
  let id = Dense.unsafe_data input and od = Dense.unsafe_data out in
  let inv = 1.0 /. float_of_int (kh * kw) in
  let body blo bhi =
    Sanitizer.note_write od ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"avg_pool2d out batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"avg_pool2d input";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let acc = ref 0.0 in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                acc :=
                  !acc +. A.unsafe_get id ((((((b * h) + iy) * w) + ix) * c) + ch)
              done
            done;
            A.unsafe_set od ((((((b * oh) + oy) * ow) + ox) * c) + ch) (!acc *. inv)
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  out

let avg_pool2d_backward ~size ~stride ~input_shape grad =
  let kh, kw = size and sh, sw = stride in
  let h = input_shape.(1) and w = input_shape.(2) and c = input_shape.(3) in
  let gshape = Dense.shape grad in
  let n = gshape.(0) and oh = gshape.(1) and ow = gshape.(2) in
  let dinput = Dense.zeros input_shape in
  let dd = Dense.unsafe_data dinput and gd = Dense.unsafe_data grad in
  let inv = 1.0 /. float_of_int (kh * kw) in
  let body blo bhi =
    Sanitizer.note_write dd ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"avg_pool2d_backward input batches";
    Sanitizer.note_read gd ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"avg_pool2d_backward grad";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let g =
              A.unsafe_get gd ((((((b * oh) + oy) * ow) + ox) * c) + ch) *. inv
            in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                let off = (((((b * h) + iy) * w) + ix) * c) + ch in
                A.unsafe_set dd off (A.unsafe_get dd off +. g)
              done
            done
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  dinput

let max_pool2d ~size ~stride input =
  check_rank4 "max_pool2d" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oshape = pool_out_shape ishape size stride in
  let n = oshape.(0) and oh = oshape.(1) and ow = oshape.(2) in
  let out = Dense.zeros oshape in
  let id = Dense.unsafe_data input and od = Dense.unsafe_data out in
  let body blo bhi =
    Sanitizer.note_write od ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"max_pool2d out batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d input";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let best = ref Float.neg_infinity in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                best :=
                  Float.max !best
                    (A.unsafe_get id ((((((b * h) + iy) * w) + ix) * c) + ch))
              done
            done;
            A.unsafe_set od ((((((b * oh) + oy) * ow) + ox) * c) + ch) !best
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  out

let max_pool2d_backward ~size ~stride input grad =
  check_rank4 "max_pool2d_backward" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let gshape = Dense.shape grad in
  let n = gshape.(0) and oh = gshape.(1) and ow = gshape.(2) in
  let dinput = Dense.zeros ishape in
  let dd = Dense.unsafe_data dinput
  and id = Dense.unsafe_data input
  and gd = Dense.unsafe_data grad in
  let body blo bhi =
    Sanitizer.note_write dd ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d_backward input batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d_backward input";
    Sanitizer.note_read gd ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"max_pool2d_backward grad";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            (* strict > keeps the historical tie rule: the first (row-major)
               maximal element takes the whole gradient. A window with no
               element above -inf (all -inf or NaN) routes it to its first
               element, never to an offset outside the window. *)
            let best = ref Float.neg_infinity in
            let best_off = ref ((((((b * h) + (oy * sh)) * w) + (ox * sw)) * c) + ch) in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                let off = (((((b * h) + iy) * w) + ix) * c) + ch in
                if A.unsafe_get id off > !best then begin
                  best := A.unsafe_get id off;
                  best_off := off
                end
              done
            done;
            A.unsafe_set dd !best_off
              (A.unsafe_get dd !best_off
              +. A.unsafe_get gd ((((((b * oh) + oy) * ow) + ox) * c) + ch))
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  dinput

let conv2d_flops ?(stride = (1, 1)) ~padding ~input filter =
  let sh, sw = stride in
  let n = input.(0) and h = input.(1) and w = input.(2) in
  let kh = filter.(0) and kw = filter.(1) and cin = filter.(2) and cout = filter.(3) in
  let oh = out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim padding ~size:w ~kernel:kw ~stride:sw in
  2 * n * oh * ow * kh * kw * cin * cout
