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
   [r = (b*oh + oy)*ow + ox]; patch columns [(ky*kw + kx)*cin + c]. [hp]
   and [wp] are the input's extents once zero-padded on both sides: every
   window lies inside that padded image. *)
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
  hp : int;
  wp : int;
}

let geom ~stride ~padding ~ishape ~kh ~kw =
  let sh, sw = stride in
  let n = ishape.(0) and h = ishape.(1) and w = ishape.(2) and cin = ishape.(3) in
  let oh = out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim padding ~size:w ~kernel:kw ~stride:sw in
  let ph, ph' = pad_amounts padding ~size:h ~kernel:kh ~stride:sh in
  let pw, pw' = pad_amounts padding ~size:w ~kernel:kw ~stride:sw in
  { n; h; w; cin; kh; kw; oh; ow; sh; sw; ph; pw; hp = h + ph + ph'; wp = w + pw + pw' }

(* The output position [(b, oy, ox)] of patch row [r = (b*oh + oy)*ow + ox],
   stepped row by row: one division per run of rows instead of four per
   row. *)
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

(* {2 Implicit GEMM}

   Patch element [(r, p)] is [xp.{base r + koff p}] in the padded image
   [xp]: [base r] is where row [r]'s window starts, [koff p] where column
   [p] sits in a window. These fill {!Dense.matmul_gather}'s offset tables:
   the forward pass gathers patch rows, the backward-filter pass patch
   columns. *)

let fill_bases g lo hi tbl =
  let pos = cursor g lo in
  for r = lo to hi - 1 do
    tbl.(r - lo) <-
      ((((pos.b * g.hp) + (pos.oy * g.sh)) * g.wp) + (pos.ox * g.sw)) * g.cin;
    advance g pos
  done

(* Column [p = ky*span + (kx*cin + c)] sits [ky] padded image rows and
   [kx*cin + c] floats into its window. *)
let fill_koffs g lo hi tbl =
  let span = g.kw * g.cin and row = g.wp * g.cin in
  let ky = ref (lo / span) and x = ref (lo mod span) in
  for p = lo to hi - 1 do
    tbl.(p - lo) <- (!ky * row) + !x;
    incr x;
    if !x = span then begin
      x := 0;
      incr ky
    end
  done

(* Runs [f] on the input zero-padded to [hp x wp]: the input itself when
   there is no padding, else a copy in kernel scratch. The padding zeros
   are the ones im2col would have multiplied. *)
let with_padded g input f =
  let id = Dense.unsafe_data input in
  if g.hp = g.h && g.wp = g.w then f id
  else
    Dense.with_scratch [| g.n; g.hp; g.wp; g.cin |] (fun xp ->
        let pd = Dense.unsafe_data xp in
        A.fill pd 0.0;
        let span = g.w * g.cin in
        for b = 0 to g.n - 1 do
          for y = 0 to g.h - 1 do
            let src = ((b * g.h) + y) * span in
            let dst = ((((b * g.hp) + y + g.ph) * g.wp) + g.pw) * g.cin in
            for i = 0 to span - 1 do
              A.unsafe_set pd (dst + i) (A.unsafe_get id (src + i))
            done
          done
        done;
        f pd)

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
    with_padded g input (fun xp ->
        Dense.matmul_gather ?domains ~m:rows ~k:cols ~rows:(fill_bases g)
          ~cols:(fill_koffs g) xp filter_mat)
  in
  Dense.with_shape out [| g.n; g.oh; g.ow; cout |]

(* dL/dfilter = patches^T x grad: [cols; rows] x [rows; cout]. The
   transposed patch matrix is gathered from the padded input like the
   forward's, with the tables swapped, so every element keeps the
   accumulation order of [Dense.matmul] of the materialized transpose for
   any domain count. *)
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
    with_padded g input (fun xp ->
        Dense.matmul_gather ?domains ~m:cols ~k:rows ~rows:(fill_koffs g)
          ~cols:(fill_bases g) xp grad_mat)
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

(* The pools walk whole channel spans: in NHWC the [c] channels of a
   pixel are contiguous, so each window position adds one span of [c]
   floats. Every output element still sums its window in (ky, kx) order
   from +0.0, then scales by [inv], and every input element of the
   backward pass receives its addends in (oy, ox) order, as in the
   per-element definition, so the bits are the same. *)
let avg_pool2d ~size ~stride input =
  check_rank4 "avg_pool2d" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oshape = pool_out_shape ishape size stride in
  let n = oshape.(0) and oh = oshape.(1) and ow = oshape.(2) in
  let out = Dense.uninit oshape in
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
          let o = ((((b * oh) + oy) * ow) + ox) * c in
          for ch = 0 to c - 1 do
            A.unsafe_set od (o + ch) 0.0
          done;
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let src = ((((b * h) + (oy * sh) + ky) * w) + (ox * sw) + kx) * c in
              for ch = 0 to c - 1 do
                A.unsafe_set od (o + ch)
                  (A.unsafe_get od (o + ch) +. A.unsafe_get id (src + ch))
              done
            done
          done;
          for ch = 0 to c - 1 do
            A.unsafe_set od (o + ch) (A.unsafe_get od (o + ch) *. inv)
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
          let o = ((((b * oh) + oy) * ow) + ox) * c in
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let dst = ((((b * h) + (oy * sh) + ky) * w) + (ox * sw) + kx) * c in
              for ch = 0 to c - 1 do
                A.unsafe_set dd (dst + ch)
                  (A.unsafe_get dd (dst + ch) +. (A.unsafe_get gd (o + ch) *. inv))
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
