(** Tests for the framework execution-strategy models (Tables 2–3): all
    strategies score the same step graph, so the differences below are
    exactly the mechanisms the paper attributes them to. *)

module Strategy = S4o_frameworks.Strategy
module Spec = S4o_device.Device_spec
module Hlo = S4o_xla.Hlo
module C = S4o_ops.Catalog

(* A small conv-net-ish step graph shared by all tests. *)
let step_graph () =
  let x = Hlo.param ~index:0 ~shape:[| 8; 16; 16; 3 |] in
  let f = Hlo.param ~index:1 ~shape:[| 3; 3; 3; 8 |] in
  let b = Hlo.param ~index:2 ~shape:[| 8 |] in
  let conv =
    Hlo.op
      (C.conv2d ~stride:(1, 1) ~padding:S4o_tensor.Convolution.Same [| 8; 16; 16; 3 |]
         [| 3; 3; 3; 8 |])
      [ x; f ]
  in
  let biased = Hlo.op (C.add [| 8; 16; 16; 8 |] [| 8 |]) [ conv; b ] in
  let act = Hlo.op (C.relu [| 8; 16; 16; 8 |]) [ biased ] in
  let pooled = Hlo.op (C.avg_pool2d ~size:(2, 2) ~stride:(2, 2) [| 8; 16; 16; 8 |]) [ act ] in
  Hlo.graph_of_outputs [ pooled ]

let gpu = Spec.gtx1080

let test_staged_strategies_have_no_per_op_host () =
  let g = step_graph () in
  let tf = Strategy.step_time Strategy.tf_graph_like ~device:gpu ~graph:g in
  Test_util.check_close "only the fixed per-step cost"
    Strategy.tf_graph_like.Strategy.per_step_host tf.Strategy.host_seconds

let test_eager_host_scales_with_ops () =
  let g = step_graph () in
  let e = Strategy.step_time Strategy.s4o_eager ~device:gpu ~graph:g in
  (* 4 compute nodes x per-op + per-step *)
  Test_util.check_close "per-op host cost"
    ((4.0 *. Strategy.s4o_eager.Strategy.per_op_host)
    +. Strategy.s4o_eager.Strategy.per_step_host)
    e.Strategy.host_seconds

let test_fused_strategies_use_fewer_kernels () =
  let g = step_graph () in
  let lazy_ = Strategy.step_time Strategy.s4o_lazy ~device:gpu ~graph:g in
  let eager = Strategy.step_time Strategy.s4o_eager ~device:gpu ~graph:g in
  Test_util.check_true "fusion reduces kernel count"
    (lazy_.Strategy.kernels < eager.Strategy.kernels)

let test_step_is_max_of_host_and_device () =
  let g = step_graph () in
  List.iter
    (fun s ->
      let b = Strategy.step_time s ~device:gpu ~graph:g in
      Test_util.check_close "max semantics"
        (Float.max b.Strategy.host_seconds b.Strategy.device_seconds)
        b.Strategy.step_seconds)
    [ Strategy.s4o_eager; Strategy.s4o_lazy; Strategy.pytorch_like;
      Strategy.tf_graph_like; Strategy.jax_like ]

let test_kernel_efficiency_scales_device_time () =
  let g = step_graph () in
  let base = Strategy.step_time Strategy.s4o_lazy ~device:gpu ~graph:g in
  let slower =
    Strategy.step_time
      { Strategy.s4o_lazy with Strategy.kernel_efficiency = 2.0 }
      ~device:gpu ~graph:g
  in
  Test_util.check_close "efficiency multiplies device time"
    (2.0 *. base.Strategy.device_seconds)
    slower.Strategy.device_seconds

let test_throughput () =
  let b =
    { Strategy.host_seconds = 0.1; device_seconds = 0.2; step_seconds = 0.2; kernels = 1 }
  in
  Test_util.check_close "batch / step" 640.0 (Strategy.throughput ~batch:128 b)

let test_table3_orderings_hold () =
  (* the Table 3 shape needs a realistically deep graph: with many small ops
     the eager per-op dispatch dominates while lazy's cheaper tracing plus
     fusion wins. (On very small traces eager can actually win — the §3.1
     rationale for keeping the naive tensor around.) *)
  let x = ref (Hlo.param ~index:0 ~shape:[| 64 |]) in
  for _ = 1 to 60 do
    x := Hlo.op (C.relu [| 64 |]) [ !x ]
  done;
  let g = Hlo.graph_of_outputs [ !x ] in
  let time s = (Strategy.step_time s ~device:gpu ~graph:g).Strategy.step_seconds in
  Test_util.check_true "eager slower than lazy"
    (time Strategy.s4o_eager > time Strategy.s4o_lazy);
  Test_util.check_true "eager slower than graph mode"
    (time Strategy.s4o_eager > time Strategy.tf_graph_like)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "frameworks.strategy",
      [
        tc "staged: no per-op host" `Quick test_staged_strategies_have_no_per_op_host;
        tc "eager: per-op host" `Quick test_eager_host_scales_with_ops;
        tc "fusion reduces kernels" `Quick test_fused_strategies_use_fewer_kernels;
        tc "step = max(host, device)" `Quick test_step_is_max_of_host_and_device;
        tc "kernel efficiency" `Quick test_kernel_efficiency_scales_device_time;
        tc "throughput math" `Quick test_throughput;
        tc "table 3 orderings" `Quick test_table3_orderings_hold;
      ] );
  ]
