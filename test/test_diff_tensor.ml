(** Tests for the tape-based tensor AD functor: gradient checks against
    central finite differences for every differentiable op, broadcasting
    adjoints, and the decoupling claim — the same AD code produces identical
    gradients over all three Tensor backends. *)

open S4o_tensor
module D = S4o_diff_tensor.Diff_tensor.Make (Naive_backend)

(* Finite-difference gradient of a scalar-valued tensor function. *)
let fd_grad ?(h = 1e-5) f (x : Dense.t) =
  Dense.init_flat (Dense.shape x) (fun i ->
      let xp = Dense.set_flat x i (Dense.get_flat x i +. h) in
      let xm = Dense.set_flat x i (Dense.get_flat x i -. h) in
      (f xp -. f xm) /. (2.0 *. h))

(* AD gradient of the same function written against the D ops. *)
let ad_grad f_ad x =
  let _, g = D.grad (fun v -> f_ad v) x in
  g

let check_grad ?(eps = 1e-3) name f_plain f_ad x =
  let fd = fd_grad f_plain x in
  let ad = ad_grad f_ad x in
  if not (Dense.allclose ~rtol:eps ~atol:1e-6 fd ad) then
    Alcotest.failf "%s: AD %s vs FD %s" name (Dense.to_string ad)
      (Dense.to_string fd)

let rngs seed = Prng.create seed

(* {1 Per-op gradient checks} *)

let test_grad_elementwise () =
  let x = Dense.rand_normal (rngs 1) [| 6 |] in
  check_grad "sum(exp x)" (fun x -> Dense.sum (Dense.exp x))
    (fun v -> D.sum_all (D.exp v))
    x;
  check_grad "sum(sigmoid x)"
    (fun x -> Dense.sum (Dense.sigmoid x))
    (fun v -> D.sum_all (D.sigmoid v))
    x;
  check_grad "sum(tanh x)"
    (fun x -> Dense.sum (Dense.tanh x))
    (fun v -> D.sum_all (D.tanh v))
    x;
  check_grad "mean(x*x)"
    (fun x -> Dense.mean (Dense.mul x x))
    (fun v -> D.mean_all (D.mul v v))
    x

let test_grad_sqrt_log () =
  let x = Dense.rand_uniform (rngs 2) ~lo:0.5 ~hi:2.0 [| 5 |] in
  check_grad "sum(sqrt x)"
    (fun x -> Dense.sum (Dense.sqrt x))
    (fun v -> D.sum_all (D.sqrt v))
    x;
  check_grad "sum(log x)"
    (fun x -> Dense.sum (Dense.log x))
    (fun v -> D.sum_all (D.log v))
    x

let test_grad_relu () =
  (* keep away from the kink *)
  let x = Dense.of_array [| 4 |] [| -1.5; -0.2; 0.3; 2.0 |] in
  check_grad "sum(relu x)"
    (fun x -> Dense.sum (Dense.relu x))
    (fun v -> D.sum_all (D.relu v))
    x

let test_grad_matmul () =
  let g = rngs 3 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  let w = Dense.rand_normal g [| 4; 2 |] in
  check_grad "matmul wrt lhs"
    (fun x -> Dense.sum (Dense.matmul x w))
    (fun v -> D.sum_all (D.matmul v (D.const w)))
    x;
  check_grad "matmul wrt rhs"
    (fun w -> Dense.sum (Dense.matmul x w))
    (fun v -> D.sum_all (D.matmul (D.const x) v))
    w

let test_grad_broadcast_add () =
  let g = rngs 4 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  let b = Dense.rand_normal g [| 4 |] in
  (* gradient w.r.t. the broadcast bias must sum over the batch axis *)
  check_grad "bias grad sums batch"
    (fun b -> Dense.sum (Dense.mul (Dense.add x b) (Dense.add x b)))
    (fun v ->
      let s = D.add (D.const x) v in
      D.sum_all (D.mul s s))
    b

let test_grad_conv2d () =
  let g = rngs 5 in
  let x = Dense.rand_normal g [| 1; 5; 5; 2 |] in
  let f = Dense.rand_normal g [| 3; 3; 2; 2 |] in
  let padding = Convolution.Same in
  check_grad "conv wrt input"
    (fun x ->
      let y = Convolution.conv2d ~padding x f in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.conv2d ~padding v (D.const f) in
      D.sum_all (D.mul y y))
    x;
  check_grad "conv wrt filter"
    (fun f ->
      let y = Convolution.conv2d ~padding x f in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.conv2d ~padding (D.const x) v in
      D.sum_all (D.mul y y))
    f

let test_grad_pools () =
  let g = rngs 6 in
  let x = Dense.rand_normal g [| 1; 4; 4; 2 |] in
  check_grad "avg pool"
    (fun x ->
      let y = Convolution.avg_pool2d ~size:(2, 2) ~stride:(2, 2) x in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.avg_pool2d ~size:(2, 2) ~stride:(2, 2) v in
      D.sum_all (D.mul y y))
    x;
  check_grad "max pool"
    (fun x ->
      let y = Convolution.max_pool2d ~size:(2, 2) ~stride:(2, 2) x in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.max_pool2d ~size:(2, 2) ~stride:(2, 2) v in
      D.sum_all (D.mul y y))
    x

let test_grad_reshape_transpose () =
  let g = rngs 7 in
  let x = Dense.rand_normal g [| 2; 6 |] in
  check_grad "through reshape"
    (fun x ->
      let r = Dense.reshape x [| 3; 4 |] in
      Dense.sum (Dense.mul r r))
    (fun v ->
      let r = D.reshape v [| 3; 4 |] in
      D.sum_all (D.mul r r))
    x;
  check_grad "through transpose"
    (fun x ->
      let t = Dense.transpose x in
      Dense.sum (Dense.mul t t))
    (fun v ->
      let t = D.transpose v in
      D.sum_all (D.mul t t))
    x

let test_grad_sum_axes () =
  let g = rngs 8 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  check_grad "sum over axis then square"
    (fun x ->
      let s = Dense.sum_axes x [ 0 ] in
      Dense.sum (Dense.mul s s))
    (fun v ->
      let s = D.sum_axes v [ 0 ] in
      D.sum_all (D.mul s s))
    x

let test_grad_div () =
  let g = rngs 9 in
  let x = Dense.rand_uniform g ~lo:0.5 ~hi:2.0 [| 5 |] in
  let y = Dense.rand_uniform g ~lo:0.5 ~hi:2.0 [| 5 |] in
  check_grad "div wrt numerator"
    (fun x -> Dense.sum (Dense.div x y))
    (fun v -> D.sum_all (D.div v (D.const y)))
    x;
  check_grad "div wrt denominator"
    (fun y -> Dense.sum (Dense.div x y))
    (fun v -> D.sum_all (D.div (D.const x) v))
    y

let test_grad_softmax_cross_entropy () =
  let g = rngs 10 in
  let logits = Dense.rand_normal g [| 4; 3 |] in
  let labels =
    Dense.one_hot ~classes:3 (Dense.of_array [| 4 |] [| 0.; 2.; 1.; 1. |])
  in
  (* reference loss: -mean over batch of sum(labels * log_softmax) *)
  let plain z =
    let lp = Dense.log_softmax z in
    -.(Dense.sum (Dense.mul labels lp)) /. 4.0
  in
  check_grad "softmax CE" plain
    (fun v -> D.softmax_cross_entropy ~labels v)
    logits;
  (* and the closed form: (softmax - labels)/n *)
  let _, grad = D.grad (fun v -> D.softmax_cross_entropy ~labels v) logits in
  let expected = Dense.scale 0.25 (Dense.sub (Dense.softmax logits) labels) in
  Test_util.check_tensor "closed-form CE gradient" expected grad

let test_grad_mse () =
  let g = rngs 11 in
  let pred = Dense.rand_normal g [| 6 |] in
  let target = Dense.rand_normal g [| 6 |] in
  check_grad "mse"
    (fun p ->
      let d = Dense.sub p target in
      Dense.sum (Dense.mul d d) /. 6.0)
    (fun v -> D.mse ~target v)
    pred

(* {1 Tape mechanics} *)

let test_params_accumulate_via_fanout () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 3.0) in
  let y = D.add (D.mul x x) x in
  D.backward ctx y;
  match D.adjoint x with
  | Some g -> Test_util.check_close "2x + 1" 7.0 (Dense.item g)
  | None -> Alcotest.fail "no adjoint"

let test_constants_get_no_adjoint () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 2.0) in
  let c = D.const (Dense.scalar 10.0) in
  let y = D.mul x c in
  D.backward ctx y;
  Test_util.check_true "const has no adjoint" (D.adjoint c = None)

let test_mixed_tapes_rejected () =
  let ctx1 = D.new_ctx () and ctx2 = D.new_ctx () in
  let x = D.param ctx1 (Dense.scalar 1.0) in
  let y = D.param ctx2 (Dense.scalar 2.0) in
  Test_util.check_raises_any "cross-tape rejected" (fun () -> D.add x y)

let test_backward_requires_own_tape () =
  let ctx1 = D.new_ctx () and ctx2 = D.new_ctx () in
  let x = D.param ctx1 (Dense.scalar 1.0) in
  let y = D.relu x in
  ignore ctx2;
  Test_util.check_raises_any "wrong-tape backward" (fun () ->
      D.backward ctx2 y)

let test_tape_length () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 1.0) in
  let _ = D.exp (D.relu (D.mul x x)) in
  (* param + 3 ops *)
  Test_util.check_int "tape entries" 4 (D.tape_length ctx)

(* {1 Backend decoupling: identical gradients on all three backends} *)

let lenet_like_loss (type t) (module Bk : Backend_intf.S with type t = t)
    images filter =
  let module Dt = S4o_diff_tensor.Diff_tensor.Make (Bk) in
  let ctx = Dt.new_ctx () in
  let f = Dt.param ctx (Bk.of_dense filter) in
  let x = Dt.const (Bk.of_dense images) in
  let y = Dt.relu (Dt.conv2d ~padding:Convolution.Same x f) in
  let pooled = Dt.avg_pool2d ~size:(2, 2) ~stride:(2, 2) y in
  let loss = Dt.mean_all (Dt.mul pooled pooled) in
  Dt.backward ctx loss;
  ( Bk.to_dense (Dt.value loss),
    match Dt.adjoint f with
    | Some g -> Bk.to_dense g
    | None -> Alcotest.fail "no gradient" )

let test_same_gradients_on_all_backends () =
  let g = rngs 12 in
  let images = Dense.rand_normal g [| 2; 6; 6; 1 |] in
  let filter = Dense.rand_normal g [| 3; 3; 1; 2 |] in
  let loss_n, grad_n = lenet_like_loss (module Naive_backend) images filter in
  let loss_e, grad_e =
    let engine = S4o_device.Engine.create S4o_device.Device_spec.gtx1080 in
    let rt = S4o_eager.Runtime.create engine in
    let module Bk = S4o_eager.Eager_backend.Make (struct
      let rt = rt
    end) in
    lenet_like_loss (module Bk) images filter
  in
  let loss_l, grad_l =
    let engine = S4o_device.Engine.create S4o_device.Device_spec.gtx1080 in
    let rt = S4o_lazy.Lazy_runtime.create engine in
    let module Bk = S4o_lazy.Lazy_backend.Make (struct
      let rt = rt
    end) in
    lenet_like_loss (module Bk) images filter
  in
  Test_util.check_tensor "eager loss" loss_n loss_e;
  Test_util.check_tensor "lazy loss" loss_n loss_l;
  Test_util.check_tensor "eager grad" grad_n grad_e;
  Test_util.check_tensor "lazy grad" grad_n grad_l

let qcheck_grad_of_random_mlp =
  Test_util.qtest ~count:30 "random 2-layer MLP gradient matches FD"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let g = rngs (1000 + seed) in
      let x = Dense.rand_normal g [| 2; 3 |] in
      let w1 = Dense.rand_normal g [| 3; 4 |] in
      let w2 = Dense.rand_normal g [| 4; 1 |] in
      let plain w1 =
        let h = Dense.tanh (Dense.matmul x w1) in
        Dense.sum (Dense.matmul h w2)
      in
      let ad v =
        let h = D.tanh (D.matmul (D.const x) v) in
        D.sum_all (D.matmul h (D.const w2))
      in
      let fd = fd_grad plain w1 in
      let grad = ad_grad ad w1 in
      Dense.allclose ~rtol:1e-3 ~atol:1e-6 fd grad)

(* Naive, counting its conv backward-input calls. *)
module Counting = struct
  include Naive_backend

  let backward_input_calls = ref 0

  let conv2d_backward_input ?stride ~padding ~input_shape f g =
    incr backward_input_calls;
    Naive_backend.conv2d_backward_input ?stride ~padding ~input_shape f g
end

(* Two convs on a constant image batch: only the second conv's input is
   tracked, so only its pullback computes an input gradient. The filter
   gradients are the kernels' own results, bit for bit. *)
let test_constant_input_pullback_skipped () =
  let module Dc = S4o_diff_tensor.Diff_tensor.Make (Counting) in
  let g = Prng.create 41 in
  let x = Dense.rand_normal g [| 2; 6; 6; 3 |] in
  let f1 = Dense.rand_normal g [| 3; 3; 3; 4 |] and f2 = Dense.rand_normal g [| 3; 3; 4; 2 |] in
  let padding = Convolution.Same in
  let ctx = Dc.new_ctx () in
  let p1 = Dc.param ctx f1 and p2 = Dc.param ctx f2 in
  let y1 = Dc.conv2d ~padding (Dc.const x) p1 in
  let loss = Dc.sum_all (Dc.conv2d ~padding y1 p2) in
  Counting.backward_input_calls := 0;
  Dc.backward ctx loss;
  Test_util.check_int "one backward-input call" 1 !Counting.backward_input_calls;
  let y1v = Convolution.conv2d ~padding x f1 in
  let g2 = Dense.ones [| 2; 6; 6; 2 |] in
  let g1 =
    Convolution.conv2d_backward_input ~padding ~input_shape:[| 2; 6; 6; 4 |] f2 g2
  in
  let grad p = Option.get (Dc.adjoint p) in
  Test_util.check_true "second filter gradient"
    (Dense.bit_equal (grad p2)
       (Convolution.conv2d_backward_filter ~padding ~filter_shape:[| 3; 3; 4; 2 |] y1v g2));
  Test_util.check_true "first filter gradient"
    (Dense.bit_equal (grad p1)
       (Convolution.conv2d_backward_filter ~padding ~filter_shape:[| 3; 3; 3; 4 |] x g1))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "diff_tensor.gradcheck",
      [
        tc "elementwise ops" `Quick test_grad_elementwise;
        tc "sqrt and log" `Quick test_grad_sqrt_log;
        tc "relu" `Quick test_grad_relu;
        tc "matmul both sides" `Quick test_grad_matmul;
        tc "broadcast bias" `Quick test_grad_broadcast_add;
        tc "conv2d both sides" `Quick test_grad_conv2d;
        tc "pooling" `Quick test_grad_pools;
        tc "reshape / transpose" `Quick test_grad_reshape_transpose;
        tc "sum over axes" `Quick test_grad_sum_axes;
        tc "division" `Quick test_grad_div;
        tc "softmax cross-entropy" `Quick test_grad_softmax_cross_entropy;
        tc "mse" `Quick test_grad_mse;
        qcheck_grad_of_random_mlp;
      ] );
    ( "diff_tensor.tape",
      [
        tc "fan-out accumulates" `Quick test_params_accumulate_via_fanout;
        tc "constants ignored" `Quick test_constants_get_no_adjoint;
        tc "constant input pullback skipped" `Quick test_constant_input_pullback_skipped;
        tc "mixed tapes rejected" `Quick test_mixed_tapes_rejected;
        tc "backward checks tape" `Quick test_backward_requires_own_tape;
        tc "tape length" `Quick test_tape_length;
      ] );
    ( "diff_tensor.decoupling",
      [ tc "identical gradients on naive/eager/lazy" `Quick test_same_gradients_on_all_backends ] );
  ]
