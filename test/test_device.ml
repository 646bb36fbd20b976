(** Tests for the simulated-accelerator substrate: op cost metadata, the
    roofline cost model, the asynchronous engine clocks (§3.2's pipeline),
    and the data-parallel cluster model (Table 1's scaling machinery). *)

module Op = S4o_device.Op_info
module Spec = S4o_device.Device_spec
module Engine = S4o_device.Engine
module Cluster = S4o_device.Cluster

(* {1 Op_info} *)

let test_op_info_elementwise () =
  let op = Op.elementwise "add" ~inputs:[ [| 4; 4 |]; [| 4; 4 |] ] ~output:[| 4; 4 |] () in
  Test_util.check_int "flops = numel" 16 op.Op.flops;
  Test_util.check_int "bytes in" (2 * 64) op.Op.bytes_in;
  Test_util.check_int "bytes out" 64 op.Op.bytes_out

let test_op_info_matmul () =
  let op = Op.matmul ~m:2 ~k:3 ~n:4 in
  Test_util.check_int "2mkn flops" 48 op.Op.flops;
  Test_util.check_true "contraction kind" (op.Op.kind = Op.Contraction)

let test_op_info_fused () =
  let a = Op.elementwise "a" ~inputs:[ [| 8 |] ] ~output:[| 8 |] () in
  let b = Op.elementwise "b" ~inputs:[ [| 8 |] ] ~output:[| 8 |] () in
  let f = Op.fused ~members:[ a; b ] ~external_in_bytes:32 ~external_out_bytes:32 in
  Test_util.check_int "fused flops sum" 16 f.Op.flops;
  Test_util.check_int "fused external bytes only" 32 f.Op.bytes_in;
  Test_util.check_true "fused kind" (f.Op.kind = Op.Fused 2)

(* {1 Roofline} *)

let tiny_spec =
  {
    Spec.name = "test";
    sustained_flops = 100.0;
    elementwise_flops = 10.0;
    mem_bandwidth = 1000.0;
    kernel_launch = 0.5;
    memory_capacity = 1024;
  }

let test_roofline_compute_bound () =
  (* contraction: 1000 flops / 100 = 10s; memory 100/1000 = 0.1s -> compute *)
  let op =
    { Op.name = "mm"; kind = Op.Contraction; flops = 1000; bytes_in = 50; bytes_out = 50 }
  in
  Test_util.check_close "compute bound + launch" 10.5 (Spec.kernel_time tiny_spec op)

let test_roofline_memory_bound () =
  (* elementwise: 1 flop, 10_000 bytes -> 10s memory *)
  let op =
    { Op.name = "add"; kind = Op.Elementwise; flops = 1; bytes_in = 5000; bytes_out = 5000 }
  in
  Test_util.check_close "memory bound + launch" 10.5 (Spec.kernel_time tiny_spec op)

let test_roofline_elementwise_rate () =
  (* elementwise uses the lower rate: 100 flops / 10 = 10s *)
  let op =
    { Op.name = "exp"; kind = Op.Elementwise; flops = 100; bytes_in = 1; bytes_out = 1 }
  in
  Test_util.check_close "elementwise rate" 10.5 (Spec.kernel_time tiny_spec op)

(* {1 Engine: async pipeline} *)

let cheap_op =
  { Op.name = "k"; kind = Op.Contraction; flops = 100; bytes_in = 0; bytes_out = 0 }
(* 1s on tiny_spec + 0.5 launch = 1.5s per kernel *)

let test_engine_async_dispatch () =
  let e = Engine.create tiny_spec in
  (* host runs ahead: dispatch costs no host time by itself *)
  ignore (Engine.dispatch e cheap_op);
  ignore (Engine.dispatch e cheap_op);
  Test_util.check_close "host still at 0" 0.0 (Engine.host_time e);
  Test_util.check_close "device queue = 3s" 3.0 (Engine.device_ready_at e);
  Test_util.check_close "pipeline depth" 3.0 (Engine.pipeline_depth e)

let test_engine_sync_stalls_host () =
  let e = Engine.create tiny_spec in
  ignore (Engine.dispatch e cheap_op);
  Engine.sync e;
  Test_util.check_close "host advanced to device" 1.5 (Engine.host_time e);
  Test_util.check_close "stall recorded" 1.5 (Engine.host_stall_time e);
  Test_util.check_close "pipeline drained" 0.0 (Engine.pipeline_depth e)

let test_engine_host_ahead_of_device () =
  let e = Engine.create tiny_spec in
  Engine.spend_host e 10.0;
  (* kernel starts when the host issues it, not before *)
  let done_at = Engine.dispatch e cheap_op in
  Test_util.check_close "kernel starts at host time" 11.5 done_at;
  Engine.sync e;
  Test_util.check_close "no stall when host was slower" 11.5 (Engine.host_time e)

let test_engine_stats () =
  let e = Engine.create tiny_spec in
  ignore (Engine.dispatch e cheap_op);
  ignore (Engine.dispatch e cheap_op);
  Test_util.check_int "kernel count" 2 (Engine.kernels_launched e);
  Test_util.check_close "busy time" 3.0 (Engine.device_busy_time e);
  Engine.reset e;
  Test_util.check_int "reset clears" 0 (Engine.kernels_launched e)

(* {1 Cluster} *)

let test_cluster_single_core_no_allreduce () =
  let c = Cluster.create ~cores:1 Spec.tpu_v3_core in
  Test_util.check_close "no all-reduce alone" 0.0
    (Cluster.all_reduce_time c ~bytes:1_000_000)

let test_cluster_allreduce_grows_with_cores () =
  let t cores =
    Cluster.all_reduce_time
      (Cluster.create ~cores Spec.tpu_v3_core)
      ~bytes:100_000_000
  in
  Test_util.check_true "8 < 64 cores" (t 8 < t 64);
  Test_util.check_true "64 < 512 cores" (t 64 < t 512)

let test_cluster_allreduce_scales_with_bytes () =
  let c = Cluster.create ~cores:16 Spec.tpu_v3_core in
  Test_util.check_true "more bytes, more time"
    (Cluster.all_reduce_time c ~bytes:1_000_000
    < Cluster.all_reduce_time c ~bytes:100_000_000)

let test_cluster_step_time_host_bound () =
  let c = Cluster.create ~cores:4 Spec.tpu_v3_core in
  let step = Cluster.step_time c ~compute:0.01 ~host:5.0 ~gradient_bytes:1000 in
  Test_util.check_close "host dominates" 5.0 step

let test_cluster_straggler_parameter () =
  (* straggler is a Cluster.create parameter now, not a hard-coded constant *)
  let step straggler =
    let c = Cluster.create ~straggler ~cores:64 Spec.tpu_v3_core in
    Cluster.step_time c ~compute:0.1 ~host:0.0 ~gradient_bytes:1_000_000
  in
  let c = Cluster.create ~cores:64 Spec.tpu_v3_core in
  Test_util.check_close "default recorded" Cluster.default_straggler
    (Cluster.straggler_factor c);
  let ideal = step 0.0 in
  let all_reduce = Cluster.all_reduce_time c ~bytes:1_000_000 in
  Test_util.check_close "straggler 0 = compute + all-reduce"
    (0.1 +. all_reduce) ideal;
  Test_util.check_true "jitter slows the step" (step 0.05 > ideal);
  Test_util.check_true "more jitter, slower" (step 0.1 > step 0.05);
  Test_util.check_raises_any "negative rejected" (fun () ->
      Cluster.create ~straggler:(-0.1) ~cores:4 Spec.tpu_v3_core)

let test_cluster_per_core_throughput_degrades_slowly () =
  (* the Table 1 property: per-core throughput loss from 16 to 128 cores is
     modest (under 10%) for a ResNet-50-sized gradient *)
  let compute = 0.2 and grad = 100 * 1024 * 1024 in
  let per_core cores =
    let c = Cluster.create ~cores Spec.tpu_v3_core in
    let step = Cluster.step_time c ~compute ~host:0.05 ~gradient_bytes:grad in
    1.0 /. step
  in
  let p16 = per_core 16 and p128 = per_core 128 in
  Test_util.check_true "some degradation" (p128 < p16);
  Test_util.check_true "under 10%" (p128 > 0.9 *. p16)

(* {1 Engine invariants, property-based: arbitrary interleavings of host
   work, kernel dispatches, and syncs must keep the clocks coherent} *)

type engine_action = Spend of float | Dispatch of int * int | Sync

let engine_actions_arb =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [
             (3, map (fun us -> Spend (float_of_int us *. 1e-6)) (int_range 1 200));
             ( 5,
               map2
                 (fun flops bytes -> Dispatch (flops, bytes))
                 (int_range 1 200_000_000) (int_range 4 4_000_000) );
             (2, return Sync);
           ]))
  in
  let print l =
    String.concat ";"
      (List.map
         (function
           | Spend s -> Printf.sprintf "spend %.0fus" (1e6 *. s)
           | Dispatch (f, b) -> Printf.sprintf "dispatch %d/%d" f b
           | Sync -> "sync")
         l)
  in
  QCheck.make ~print gen

let apply_engine_action engine = function
  | Spend s -> Engine.spend_host engine s
  | Dispatch (flops, bytes) ->
      ignore
        (Engine.dispatch engine
           {
             Op.name = "k";
             kind = Op.Elementwise;
             flops;
             bytes_in = bytes;
             bytes_out = bytes;
           })
  | Sync -> Engine.sync engine

let prop_engine_invariants actions =
  let engine = Engine.create ~recorder:(S4o_obs.Recorder.create ()) Spec.gtx1080 in
  let ok = ref true in
  let last_host = ref 0.0 in
  List.iter
    (fun a ->
      apply_engine_action engine a;
      let h = Engine.host_time engine in
      (* host clock never runs backwards *)
      if h < !last_host -. 1e-12 then ok := false;
      last_host := h;
      (* pipeline depth is never negative *)
      if Engine.pipeline_depth engine < 0.0 then ok := false)
    actions;
  Engine.sync engine;
  (* after a sync the pipeline is drained *)
  if Engine.pipeline_depth engine <> 0.0 then ok := false;
  (* kernels execute serially: device-track spans never overlap *)
  let device_spans =
    List.filter
      (fun (s : S4o_obs.Recorder.span) -> s.S4o_obs.Recorder.track = S4o_obs.Recorder.Device)
      (S4o_obs.Recorder.spans (Engine.recorder engine))
  in
  let sorted =
    List.sort
      (fun (a : S4o_obs.Recorder.span) (b : S4o_obs.Recorder.span) ->
        compare a.S4o_obs.Recorder.start b.S4o_obs.Recorder.start)
      device_spans
  in
  let rec non_overlapping = function
    | (a : S4o_obs.Recorder.span) :: (b :: _ as rest) ->
        a.S4o_obs.Recorder.finish >= a.S4o_obs.Recorder.start
        && b.S4o_obs.Recorder.start >= a.S4o_obs.Recorder.finish -. 1e-12
        && non_overlapping rest
    | [ a ] -> a.S4o_obs.Recorder.finish >= a.S4o_obs.Recorder.start
    | [] -> true
  in
  if not (non_overlapping sorted) then ok := false;
  !ok

let suite =
  let tc = Alcotest.test_case in
  [
    ( "device.op_info",
      [
        tc "elementwise" `Quick test_op_info_elementwise;
        tc "matmul" `Quick test_op_info_matmul;
        tc "fused external traffic" `Quick test_op_info_fused;
      ] );
    ( "device.roofline",
      [
        tc "compute bound" `Quick test_roofline_compute_bound;
        tc "memory bound" `Quick test_roofline_memory_bound;
        tc "elementwise rate" `Quick test_roofline_elementwise_rate;
      ] );
    ( "device.engine",
      [
        tc "async dispatch fills pipeline" `Quick test_engine_async_dispatch;
        tc "sync stalls host" `Quick test_engine_sync_stalls_host;
        tc "host slower than device" `Quick test_engine_host_ahead_of_device;
        tc "statistics" `Quick test_engine_stats;
      ] );
    ( "device.cluster",
      [
        tc "single core" `Quick test_cluster_single_core_no_allreduce;
        tc "all-reduce grows with cores" `Quick test_cluster_allreduce_grows_with_cores;
        tc "all-reduce grows with bytes" `Quick test_cluster_allreduce_scales_with_bytes;
        tc "host-bound step" `Quick test_cluster_step_time_host_bound;
        tc "straggler is a create parameter" `Quick test_cluster_straggler_parameter;
        tc "per-core throughput (Table 1 shape)" `Quick
          test_cluster_per_core_throughput_degrades_slowly;
      ] );
    ( "device.engine.invariants",
      [
        Test_util.qtest ~count:300 "clocks and kernel spans stay coherent"
          engine_actions_arb prop_engine_invariants;
      ] );
  ]
