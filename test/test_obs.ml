(** Tests for the unified observability layer ([S4o_obs]): the event
    recorder, the metrics registry, the unified stats surface both runtimes
    share, and the Chrome-trace export (round-tripped through a real JSON
    parse). *)

open S4o_tensor
module Obs = S4o_obs
module Recorder = S4o_obs.Recorder
module Metrics = S4o_obs.Metrics
module Stats = S4o_obs.Stats
module Engine = S4o_device.Engine
module Spec = S4o_device.Device_spec

let expr (type t) (module Bk : Backend_intf.S with type t = t) a b =
  let x = Bk.of_dense a and y = Bk.of_dense b in
  let z = Bk.relu (Bk.sub (Bk.mul x y) (Bk.add_scalar 0.5 x)) in
  Bk.to_dense (Bk.softmax z)

let sample_inputs seed =
  let g = Prng.create seed in
  (Dense.rand_normal g [| 2; 4 |], Dense.rand_normal g [| 2; 4 |])

(* {1 Recorder} *)

let test_recorder_span_nesting () =
  let r = Recorder.create () in
  let outer = Recorder.begin_span r Recorder.Host ~cat:"outer" "parent" ~at:0.0 in
  let inner = Recorder.begin_span r Recorder.Host ~cat:"inner" "child" ~at:1.0 in
  Recorder.end_span r inner ~at:2.0;
  Recorder.end_span r outer ~args:[ ("k", "v") ] ~at:3.0;
  match Recorder.spans r with
  | [ child; parent ] ->
      Test_util.check_string "child first (ended first)" "child" child.Recorder.name;
      Test_util.check_string "parent second" "parent" parent.Recorder.name;
      Test_util.check_true "child nested within parent"
        (child.Recorder.start >= parent.Recorder.start
        && child.Recorder.finish <= parent.Recorder.finish);
      Test_util.check_true "end args appended"
        (List.mem_assoc "k" parent.Recorder.args)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_recorder_disabled_is_noop () =
  let r = Recorder.create ~enabled:false () in
  Recorder.span r Recorder.Device "k" ~start:0.0 ~finish:1.0;
  Recorder.instant r Recorder.Host "i" ~at:0.5;
  Test_util.check_int "nothing recorded" 0 (Recorder.event_count r);
  Recorder.set_enabled r true;
  Recorder.span r Recorder.Device "k" ~start:0.0 ~finish:1.0;
  Test_util.check_int "recording after enable" 1 (Recorder.event_count r)

(* {1 Metrics} *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m "ops" in
  let c2 = Metrics.counter m "ops" in
  Metrics.incr c1;
  Metrics.incr ~by:2 c2;
  (* find-or-create: same name, same counter *)
  Test_util.check_int "shared counter" 3 (Metrics.counter_value c1);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 4.0;
  Metrics.set g 1.5;
  Test_util.check_close "gauge last" 1.5 (Metrics.gauge_value g);
  Test_util.check_close "gauge peak" 4.0 (Metrics.gauge_peak g);
  let h = Metrics.histogram m "sizes" in
  List.iter (fun v -> Metrics.observe h v) [ 1.0; 3.0; 2.0 ];
  Test_util.check_int "hist count" 3 (Metrics.hist_count h);
  Test_util.check_close "hist sum" 6.0 (Metrics.hist_sum h);
  Test_util.check_close "hist max" 3.0 (Metrics.hist_max h);
  Test_util.check_close "hist mean" 2.0 (Metrics.hist_mean h);
  Metrics.reset m;
  Test_util.check_int "counter reset" 0 (Metrics.counter_value c1);
  Test_util.check_int "hist reset" 0 (Metrics.hist_count h);
  Test_util.check_int "registrations survive reset" 3
    (List.length (Metrics.snapshot m))

let test_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* 1..100 in scrambled order: quantiles must not depend on arrival order *)
  let perm = S4o_tensor.Prng.permutation (Prng.create 13) 100 in
  Array.iter (fun i -> Metrics.observe h (float_of_int (i + 1))) perm;
  Test_util.check_close "p0 = min" 1.0 (Metrics.quantile h 0.0);
  Test_util.check_close "p100 = max" 100.0 (Metrics.quantile h 1.0);
  Test_util.check_close "median interpolates" 50.5 (Metrics.quantile h 0.5);
  Test_util.check_close "p90" 90.1 (Metrics.quantile h 0.9);
  Test_util.check_close "p99" 99.01 (Metrics.quantile h 0.99);
  let s = Metrics.summary h in
  Test_util.check_int "summary count" 100 s.Metrics.count;
  Test_util.check_close "summary mean" 50.5 s.Metrics.mean;
  Test_util.check_close "summary p50" 50.5 s.Metrics.p50;
  Test_util.check_close "summary p99" 99.01 s.Metrics.p99;
  Test_util.check_close "summary max" 100.0 s.Metrics.max;
  Test_util.check_raises_any "q > 1 rejected" (fun () -> Metrics.quantile h 1.5);
  Metrics.reset m;
  Test_util.check_close "empty quantile is 0" 0.0 (Metrics.quantile h 0.5);
  Test_util.check_int "empty summary" 0 (Metrics.summary h).Metrics.count;
  (* growth across the initial sample-buffer capacity keeps exactness *)
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Test_util.check_close "p50 after growth" 500.5 (Metrics.quantile h 0.5)

(* {1 Engine instrumentation} *)

let test_clock_monotonicity () =
  (* Simulated timeline invariants after a real eager workload: every span
     is well-formed, device kernels execute serially (FIFO, no overlap),
     and successive host dispatch spans never run backwards. *)
  Test_util.with_eager ~recorder:(Recorder.create ()) (fun (module Bk) _ engine ->
      let a, b = sample_inputs 1 in
      ignore (expr (module Bk) a b);
      let spans = Recorder.spans (Engine.recorder engine) in
      Test_util.check_true "spans recorded" (List.length spans > 5);
      List.iter
        (fun (s : Recorder.span) ->
          Test_util.check_true (s.Recorder.name ^ " well-formed")
            (s.Recorder.start >= 0.0 && s.Recorder.finish >= s.Recorder.start))
        spans;
      let by_track track =
        List.filter (fun (s : Recorder.span) -> s.Recorder.track = track) spans
      in
      let check_serial label spans =
        ignore
          (List.fold_left
             (fun prev_finish (s : Recorder.span) ->
               Test_util.check_true (label ^ " serialized")
                 (s.Recorder.start +. 1e-12 >= prev_finish);
               s.Recorder.finish)
             0.0 spans)
      in
      check_serial "device kernels" (by_track Recorder.Device);
      check_serial "host spans" (by_track Recorder.Host))

let test_eager_dispatch_span_count () =
  Test_util.with_eager ~recorder:(Recorder.create ()) (fun (module Bk) rt engine ->
      let a, b = sample_inputs 2 in
      ignore (expr (module Bk) a b);
      let st = S4o_eager.Runtime.stats rt in
      let dispatch_spans =
        List.filter
          (fun (s : Recorder.span) -> s.Recorder.cat = "dispatch")
          (Recorder.spans (Engine.recorder engine))
      in
      Test_util.check_int "one dispatch span per dispatched op"
        st.Stats.ops_dispatched
        (List.length dispatch_spans);
      let kernel_spans =
        List.filter
          (fun (s : Recorder.span) -> s.Recorder.cat = "kernel")
          (Recorder.spans (Engine.recorder engine))
      in
      Test_util.check_int "one kernel span per launched kernel"
        st.Stats.kernels_launched
        (List.length kernel_spans))

(* {1 The unified stats surface} *)

let test_unified_stats_shape () =
  let eager_st =
    Test_util.with_eager (fun (module Bk) rt _ ->
        let a, b = sample_inputs 3 in
        ignore (expr (module Bk) a b);
        S4o_eager.Runtime.stats rt)
  in
  let lazy_st =
    Test_util.with_lazy (fun (module Bk) rt _ ->
        let a, b = sample_inputs 3 in
        ignore (expr (module Bk) a b);
        S4o_lazy.Lazy_runtime.stats rt)
  in
  (* one type serves both: an eager snapshot never traces, a lazy one never
     dispatches eagerly *)
  Test_util.check_true "eager dispatched" (eager_st.Stats.ops_dispatched > 0);
  Test_util.check_int "eager never traces" 0 eager_st.Stats.traces_cut;
  Test_util.check_int "lazy never eager-dispatches" 0 lazy_st.Stats.ops_dispatched;
  Test_util.check_true "lazy traced" (lazy_st.Stats.traces_cut > 0);
  Test_util.check_true "both count kernels"
    (eager_st.Stats.kernels_launched > 0 && lazy_st.Stats.kernels_launched > 0);
  Test_util.check_true "lazy charged compile time"
    (lazy_st.Stats.compile_seconds > 0.0)

let test_reset_stats () =
  Test_util.with_eager ~recorder:(Recorder.create ()) (fun (module Bk) rt _ ->
      let a, b = sample_inputs 4 in
      ignore (expr (module Bk) a b);
      Test_util.check_true "nonzero before reset"
        ((S4o_eager.Runtime.stats rt).Stats.ops_dispatched > 0);
      S4o_eager.Runtime.reset_stats rt;
      let st = S4o_eager.Runtime.stats rt in
      Test_util.check_int "ops zeroed" 0 st.Stats.ops_dispatched;
      Test_util.check_int "kernels zeroed" 0 st.Stats.kernels_launched;
      Test_util.check_close "host clock zeroed" 0.0 st.Stats.host_seconds;
      Test_util.check_int "timeline cleared" 0 st.Stats.spans_recorded);
  Test_util.with_lazy (fun (module Bk) rt _ ->
      let a, b = sample_inputs 4 in
      ignore (expr (module Bk) a b);
      S4o_lazy.Lazy_runtime.reset_stats rt;
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "traces zeroed" 0 st.Stats.traces_cut;
      Test_util.check_close "compile time zeroed" 0.0 st.Stats.compile_seconds)

(* {1 Lazy cache instrumentation} *)

let test_lazy_cache_hit_counter_vs_ablation () =
  let steps (module Bk : Backend_intf.S) =
    List.iter
      (fun seed ->
        let a, b = sample_inputs seed in
        ignore (expr (module Bk) a b))
      [ 1; 2; 3; 4 ]
  in
  let st_on =
    Test_util.with_lazy ~cache_enabled:true (fun (module Bk) rt _ ->
        steps (module Bk);
        S4o_lazy.Lazy_runtime.stats rt)
  in
  let st_off =
    Test_util.with_lazy ~cache_enabled:false (fun (module Bk) rt _ ->
        steps (module Bk);
        S4o_lazy.Lazy_runtime.stats rt)
  in
  Test_util.check_int "cache on: one compile" 1 st_on.Stats.cache_misses;
  Test_util.check_int "cache on: rest hit" 3 st_on.Stats.cache_hits;
  Test_util.check_int "ablation: every trace recompiles" 4
    st_off.Stats.cache_misses;
  Test_util.check_int "ablation: no hits" 0 st_off.Stats.cache_hits;
  Test_util.check_true "recompiling costs more simulated host time"
    (st_off.Stats.compile_seconds > st_on.Stats.compile_seconds)

(* {1 Chrome trace export} *)

let test_chrome_trace_round_trip () =
  let eager_rec, n_eager_events, host_spans, device_spans =
    Test_util.with_eager ~recorder:(Recorder.create ()) (fun (module Bk) _ engine ->
        let a, b = sample_inputs 6 in
        ignore (expr (module Bk) a b);
        let r = Engine.recorder engine in
        let spans = Recorder.spans r in
        ( r,
          Recorder.event_count r,
          List.filter (fun (s : Recorder.span) -> s.Recorder.cat = "dispatch") spans,
          List.filter (fun (s : Recorder.span) -> s.Recorder.cat = "kernel") spans ))
  in
  (* the §3.2 pipeline is visible: some host dispatch span overlaps some
     device kernel span in simulated time *)
  let overlaps (a : Recorder.span) (b : Recorder.span) =
    a.Recorder.start < b.Recorder.finish && b.Recorder.start < a.Recorder.finish
  in
  Test_util.check_true "host dispatch overlaps device kernels"
    (List.exists
       (fun d -> List.exists (fun k -> overlaps d k) device_spans)
       host_spans);
  let s = Obs.Chrome_trace.to_string ~process:"eager" eager_rec in
  (match Obs.Chrome_trace.validate s with
  | Ok n ->
      (* every recorded event plus 3 metadata records *)
      Test_util.check_int "all events exported" (n_eager_events + 3) n
  | Error msg -> Alcotest.failf "trace did not validate: %s" msg);
  match Obs.Json.parse s with
  | Error msg -> Alcotest.failf "export is not valid JSON: %s" msg
  | Ok j ->
      let events =
        match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
        | Some evs -> evs
        | None -> Alcotest.fail "no traceEvents"
      in
      let complete =
        List.filter
          (fun e ->
            match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
            | Some "X" -> true
            | _ -> false)
          events
      in
      Test_util.check_int "one X event per span"
        (List.length (Recorder.spans eager_rec))
        (List.length complete);
      List.iter
        (fun e ->
          let num k =
            match Option.bind (Obs.Json.member k e) Obs.Json.to_float with
            | Some f -> f
            | None -> Alcotest.failf "span event missing %s" k
          in
          Test_util.check_true "ts >= 0 and dur >= 0"
            (num "ts" >= 0.0 && num "dur" >= 0.0))
        complete

let test_json_parser () =
  let round_trip s =
    match Obs.Json.parse s with
    | Ok j -> Obs.Json.to_string j
    | Error msg -> Alcotest.failf "parse failed on %s: %s" s msg
  in
  Test_util.check_string "object round-trips"
    {|{"a":[1,2.5,true,null],"b":"x\"y"}|}
    (round_trip {|{ "a" : [1, 2.5, true, null], "b" : "x\"y" }|});
  Test_util.check_true "rejects garbage"
    (match Obs.Json.parse "{" with Error _ -> true | Ok _ -> false);
  Test_util.check_true "rejects trailing"
    (match Obs.Json.parse "1 2" with Error _ -> true | Ok _ -> false)

(* {1 Backend stride defaults (unified API surface)} *)

let test_stride_defaults_agree () =
  let rng = Prng.create 9 in
  let image = Dense.rand_normal rng [| 1; 8; 8; 2 |] in
  let filter = Dense.rand_normal rng [| 3; 3; 2; 4 |] in
  let conv_grad = Dense.rand_normal rng [| 1; 8; 8; 4 |] in
  let pool_grad = Dense.rand_normal rng [| 1; 4; 4; 2 |] in
  let padding = Convolution.Same and size = (2, 2) in
  let input_shape = Dense.shape image and filter_shape = Dense.shape filter in
  (* Every op with a [?stride], run with the default and with the documented
     default spelled out: (1, 1) for convolutions, the window for pooling. *)
  let run (type t) (module Bk : Backend_intf.S with type t = t) =
    let x = Bk.of_dense image and f = Bk.of_dense filter in
    let gc = Bk.of_dense conv_grad and gp = Bk.of_dense pool_grad in
    let case name explicit op =
      (name, Bk.to_dense (op None), Bk.to_dense (op (Some explicit)))
    in
    [
      case "conv2d" (1, 1) (fun stride -> Bk.conv2d ?stride ~padding x f);
      case "conv2d_backward_input" (1, 1) (fun stride ->
          Bk.conv2d_backward_input ?stride ~padding ~input_shape f gc);
      case "conv2d_backward_filter" (1, 1) (fun stride ->
          Bk.conv2d_backward_filter ?stride ~padding ~filter_shape x gc);
      case "avg_pool2d" size (fun stride -> Bk.avg_pool2d ?stride ~size x);
      case "max_pool2d" size (fun stride -> Bk.max_pool2d ?stride ~size x);
      case "avg_pool2d_backward" size (fun stride ->
          Bk.avg_pool2d_backward ?stride ~size ~input_shape gp);
      case "max_pool2d_backward" size (fun stride ->
          Bk.max_pool2d_backward ?stride ~size x gp);
    ]
  in
  let check backend =
    List.iter (fun (name, default, explicit) ->
        Test_util.check_true
          (Printf.sprintf "%s %s: default stride = explicit" backend name)
          (Dense.bit_equal default explicit))
  in
  check "naive" (run (module Naive_backend));
  check "eager" (Test_util.with_eager (fun (module Bk) _ _ -> run (module Bk)));
  check "lazy" (Test_util.with_lazy (fun (module Bk) _ _ -> run (module Bk)))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "obs.recorder",
      [
        tc "span nesting via begin/end" `Quick test_recorder_span_nesting;
        tc "disabled recorder is a no-op" `Quick test_recorder_disabled_is_noop;
      ] );
    ( "obs.metrics",
      [
        tc "registry semantics" `Quick test_metrics_registry;
        tc "histogram quantiles and summary" `Quick test_metrics_quantiles;
      ] );
    ( "obs.engine",
      [
        tc "simulated clock monotonicity" `Quick test_clock_monotonicity;
        tc "dispatch span count = ops dispatched" `Quick
          test_eager_dispatch_span_count;
      ] );
    ( "obs.stats",
      [
        tc "one snapshot type for both runtimes" `Quick test_unified_stats_shape;
        tc "reset_stats zeroes everything" `Quick test_reset_stats;
        tc "cache-hit counters vs recompile ablation" `Quick
          test_lazy_cache_hit_counter_vs_ablation;
      ] );
    ( "obs.chrome_trace",
      [
        tc "JSON round-trip and overlap" `Quick test_chrome_trace_round_trip;
        tc "json parser" `Quick test_json_parser;
      ] );
    ( "obs.backend_defaults",
      [ tc "stride defaults identical across backends" `Quick test_stride_defaults_agree ] );
  ]
