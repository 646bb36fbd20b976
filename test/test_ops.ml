(** Tests for the shared op catalog: every entry's kernel must agree with the
    corresponding {!S4o_tensor.Dense} reference, its declared output shape
    must match what the kernel produces, and its cost metadata must be
    sensible — these are the invariants that keep the eager and lazy
    runtimes semantically interchangeable. *)

open S4o_tensor
module C = S4o_ops.Catalog
module Op = S4o_device.Op_info

let rng = Prng.create 31

let run (op : C.op) args =
  let out = op.C.kernel args in
  if not (Shape.equal (Dense.shape out) op.C.out_shape) then
    Alcotest.failf "%s: declared shape %s, kernel produced %s" (C.name op.C.kind)
      (Shape.to_string op.C.out_shape)
      (Shape.to_string (Dense.shape out));
  out

let test_binary_ops_match_dense () =
  let a = Dense.rand_normal rng [| 3; 4 |] in
  let b = Dense.rand_normal rng [| 3; 4 |] in
  let cases =
    [
      ("add", (fun a b -> C.add a b), Dense.add);
      ("sub", (fun a b -> C.sub a b), Dense.sub);
      ("mul", (fun a b -> C.mul a b), Dense.mul);
      ("div", (fun a b -> C.div a b), Dense.div);
    ]
  in
  List.iter
    (fun (name, mk, reference) ->
      let op = mk (Dense.shape a) (Dense.shape b) in
      Test_util.check_tensor name (reference a b) (run op [| a; b |]))
    cases

let test_binary_broadcast_shape () =
  let op = C.add [| 3; 1 |] [| 4 |] in
  Test_util.check_true "broadcast output" (op.C.out_shape = [| 3; 4 |])

let test_unary_ops_match_dense () =
  let a = Dense.rand_uniform rng ~lo:0.1 ~hi:2.0 [| 5 |] in
  let cases =
    [
      ("neg", (fun a -> C.neg a), Dense.neg);
      ("exp", (fun a -> C.exp a), Dense.exp);
      ("log", (fun a -> C.log a), Dense.log);
      ("sqrt", (fun a -> C.sqrt a), Dense.sqrt);
      ("relu", (fun a -> C.relu a), Dense.relu);
      ("sigmoid", (fun a -> C.sigmoid a), Dense.sigmoid);
      ("tanh", (fun a -> C.tanh a), Dense.tanh);
    ]
  in
  List.iter
    (fun (name, mk, reference) ->
      let op = mk (Dense.shape a) in
      Test_util.check_tensor name (reference a) (run op [| a |]))
    cases

let test_scale_attrs_distinguish_constants () =
  let a = C.scale 2.0 [| 4 |] in
  let b = C.scale 3.0 [| 4 |] in
  Test_util.check_true "constants recorded in the kind" (not (C.equal a.C.kind b.C.kind));
  Test_util.check_true "printed exactly"
    (C.params_to_string (C.scale 1.0000001 [| 4 |]).C.kind
    <> C.params_to_string (C.scale 1.0000004 [| 4 |]).C.kind);
  (* Same trace shape, constants equal to six digits: the second force must
     not reuse the first program. *)
  let rt = S4o_lazy.Lazy_runtime.create (S4o_device.Engine.create S4o_device.Device_spec.gtx1080) in
  let module L = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Dense.of_array [| 1 |] [| 1000.0 |] in
  let force c = Dense.item (L.to_dense (L.scale c (L.of_dense x))) in
  Test_util.check_float ~eps:0.0 "first constant" (1000.0 *. 1.0000001) (force 1.0000001);
  Test_util.check_float ~eps:0.0 "second constant" (1000.0 *. 1.0000004) (force 1.0000004)

let test_malformed_shapes_raise () =
  let shape_error name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Shape.Shape_error _ -> ()
  in
  let padding = Convolution.Same in
  shape_error "conv2d channel mismatch" (fun () ->
      C.conv2d ~stride:(1, 1) ~padding [| 1; 8; 8; 3 |] [| 3; 3; 4; 8 |]);
  shape_error "conv2d rank" (fun () ->
      C.conv2d ~stride:(1, 1) ~padding [| 8; 8; 3 |] [| 3; 3; 3; 8 |]);
  shape_error "unbroadcast to a non-suffix" (fun () -> C.unbroadcast [| 4; 3 |] [| 5 |]);
  shape_error "broadcast_to a smaller shape" (fun () -> C.broadcast_to [| 2; 3 |] [| 3 |]);
  shape_error "backward input grad mismatch" (fun () ->
      C.conv2d_backward_input ~stride:(1, 1) ~padding ~input_shape:[| 1; 8; 8; 3 |]
        [| 3; 3; 3; 8 |] [| 1; 9; 8; 8 |]);
  shape_error "pool rank" (fun () -> C.avg_pool2d ~size:(2, 2) ~stride:(2, 2) [| 8; 8 |]);
  shape_error "softmax rank" (fun () -> C.softmax [| 8 |]);
  (* The lazy backend raises when the op is recorded, not at the next cut. *)
  let rt = S4o_lazy.Lazy_runtime.create (S4o_device.Engine.create S4o_device.Device_spec.gtx1080) in
  let module L = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = L.of_dense (Dense.zeros [| 1; 8; 8; 3 |]) in
  let f = L.of_dense (Dense.zeros [| 3; 3; 4; 8 |]) in
  shape_error "lazy conv2d at the call" (fun () -> L.conv2d ~padding x f);
  shape_error "lazy unbroadcast at the call" (fun () ->
      L.unbroadcast (L.of_dense (Dense.zeros [| 4; 3 |])) [| 5 |]);
  Test_util.check_int "nothing was cut" 0
    (S4o_lazy.Lazy_runtime.stats rt).S4o_obs.Stats.traces_cut

let test_relu_grad_kernel () =
  let x = Dense.of_array [| 4 |] [| -1.0; 2.0; -3.0; 4.0 |] in
  let g = Dense.of_array [| 4 |] [| 10.0; 10.0; 10.0; 10.0 |] in
  let op = C.relu_grad (Dense.shape x) (Dense.shape g) in
  Test_util.check_tensor "mask applied"
    (Dense.of_array [| 4 |] [| 0.0; 10.0; 0.0; 10.0 |])
    (run op [| x; g |])

let test_matmul_op () =
  let a = Dense.rand_normal rng [| 2; 3 |] in
  let b = Dense.rand_normal rng [| 3; 5 |] in
  let op = C.matmul (Dense.shape a) (Dense.shape b) in
  Test_util.check_tensor "matmul" (Dense.matmul a b) (run op [| a; b |]);
  Test_util.check_int "flops 2mkn" (2 * 2 * 3 * 5) op.C.info.Op.flops;
  Test_util.check_true "contraction" (op.C.info.Op.kind = Op.Contraction);
  Test_util.check_raises_any "shape checked at build time" (fun () ->
      C.matmul [| 2; 3 |] [| 4; 5 |])

let test_conv_op_and_backwards () =
  let x = Dense.rand_normal rng [| 1; 6; 6; 2 |] in
  let f = Dense.rand_normal rng [| 3; 3; 2; 4 |] in
  let padding = Convolution.Same in
  let fwd = C.conv2d ~stride:(1, 1) ~padding (Dense.shape x) (Dense.shape f) in
  let y = run fwd [| x; f |] in
  Test_util.check_tensor "conv forward" (Convolution.conv2d ~padding x f) y;
  let bwd_in =
    C.conv2d_backward_input ~stride:(1, 1) ~padding ~input_shape:(Dense.shape x)
      (Dense.shape f) (Dense.shape y)
  in
  Test_util.check_tensor "conv backward input"
    (Convolution.conv2d_backward_input ~padding ~input_shape:(Dense.shape x) f y)
    (run bwd_in [| f; y |]);
  let bwd_f =
    C.conv2d_backward_filter ~stride:(1, 1) ~padding ~filter_shape:(Dense.shape f)
      (Dense.shape x) (Dense.shape y)
  in
  Test_util.check_tensor "conv backward filter"
    (Convolution.conv2d_backward_filter ~padding ~filter_shape:(Dense.shape f) x y)
    (run bwd_f [| x; y |]);
  (* training flop accounting: each backward conv costs about one forward *)
  Test_util.check_int "backward input flops" fwd.C.info.Op.flops
    bwd_in.C.info.Op.flops

let test_pool_ops () =
  let x = Dense.rand_normal rng [| 1; 4; 4; 3 |] in
  let avg = C.avg_pool2d ~size:(2, 2) ~stride:(2, 2) (Dense.shape x) in
  Test_util.check_tensor "avg pool"
    (Convolution.avg_pool2d ~size:(2, 2) ~stride:(2, 2) x)
    (run avg [| x |]);
  let mx = C.max_pool2d ~size:(2, 2) ~stride:(2, 2) (Dense.shape x) in
  Test_util.check_tensor "max pool"
    (Convolution.max_pool2d ~size:(2, 2) ~stride:(2, 2) x)
    (run mx [| x |])

let test_reduction_ops () =
  let x = Dense.rand_normal rng [| 3; 4 |] in
  let s = C.sum_axes (Dense.shape x) [ 0 ] in
  Test_util.check_tensor "sum_axes" (Dense.sum_axes x [ 0 ]) (run s [| x |]);
  let sa = C.sum_all (Dense.shape x) in
  Test_util.check_close "sum_all" (Dense.sum x) (Dense.item (run sa [| x |]));
  let ma = C.mean_all (Dense.shape x) in
  Test_util.check_close "mean_all" (Dense.mean x) (Dense.item (run ma [| x |]))

let test_shape_ops () =
  let x = Dense.rand_normal rng [| 2; 6 |] in
  let r = C.reshape (Dense.shape x) [| 3; 4 |] in
  Test_util.check_tensor "reshape" (Dense.reshape x [| 3; 4 |]) (run r [| x |]);
  Test_util.check_raises_any "reshape checked" (fun () ->
      C.reshape [| 2; 6 |] [| 5 |]);
  let t = C.transpose (Dense.shape x) in
  Test_util.check_tensor "transpose" (Dense.transpose x) (run t [| x |]);
  let row = Dense.rand_normal rng [| 6 |] in
  let b = C.broadcast_to [| 6 |] [| 2; 6 |] in
  Test_util.check_tensor "broadcast" (Dense.broadcast_to row [| 2; 6 |]) (run b [| row |]);
  let u = C.unbroadcast [| 2; 6 |] [| 6 |] in
  Test_util.check_tensor "unbroadcast" (Dense.unbroadcast x [| 6 |]) (run u [| x |])

let test_softmax_ops () =
  let x = Dense.rand_normal rng [| 3; 5 |] in
  let s = C.softmax (Dense.shape x) in
  Test_util.check_tensor "softmax" (Dense.softmax x) (run s [| x |]);
  let ls = C.log_softmax (Dense.shape x) in
  Test_util.check_tensor "log_softmax" (Dense.log_softmax x) (run ls [| x |])

let test_cost_metadata_sane () =
  (* every constructor yields non-negative costs and positive output bytes *)
  let ops =
    [
      C.add [| 8 |] [| 8 |];
      C.relu [| 8 |];
      C.matmul [| 4; 4 |] [| 4; 4 |];
      C.conv2d ~stride:(1, 1) ~padding:Convolution.Same [| 1; 8; 8; 1 |]
        [| 3; 3; 1; 2 |];
      C.sum_all [| 64 |];
      C.reshape [| 8 |] [| 2; 4 |];
      C.softmax [| 2; 4 |];
      C.avg_pool2d ~size:(2, 2) ~stride:(2, 2) [| 1; 8; 8; 1 |];
    ]
  in
  List.iter
    (fun (op : C.op) ->
      Test_util.check_true (C.name op.C.kind ^ " flops >= 0") (op.C.info.Op.flops >= 0);
      Test_util.check_true (C.name op.C.kind ^ " bytes out > 0") (op.C.info.Op.bytes_out > 0))
    ops

let qcheck_elementwise_flops_scale_with_numel =
  Test_util.qtest ~count:50 "elementwise flops = output numel"
    QCheck.(pair (int_range 1 20) (int_range 1 20))
    (fun (a, b) ->
      let op = C.add [| a; b |] [| a; b |] in
      op.C.info.Op.flops = a * b)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ops.catalog",
      [
        tc "binary ops match Dense" `Quick test_binary_ops_match_dense;
        tc "binary broadcast shapes" `Quick test_binary_broadcast_shape;
        tc "unary ops match Dense" `Quick test_unary_ops_match_dense;
        tc "scale constants in attrs" `Quick test_scale_attrs_distinguish_constants;
        tc "malformed shapes raise at the call" `Quick test_malformed_shapes_raise;
        tc "relu_grad kernel" `Quick test_relu_grad_kernel;
        tc "matmul" `Quick test_matmul_op;
        tc "conv2d and backwards" `Quick test_conv_op_and_backwards;
        tc "pools" `Quick test_pool_ops;
        tc "reductions" `Quick test_reduction_ops;
        tc "shape ops" `Quick test_shape_ops;
        tc "softmax" `Quick test_softmax_ops;
        tc "cost metadata sane" `Quick test_cost_metadata_sane;
        qcheck_elementwise_flops_scale_with_numel;
      ] );
  ]
