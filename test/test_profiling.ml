(** Tests for the deep-profiling subsystem: off-heap memory accounting
    ([S4o_obs.Memory] + the [Dense.alloc] hook), trace analysis
    ([S4o_obs.Analysis]: op profile, overlap, critical path), Prometheus
    exposition ([S4o_obs.Prom]), the hardened [Chrome_trace.validate], and
    the tensor-memory fields threaded through the unified stats surface. *)

open S4o_tensor
module Memory = S4o_obs.Memory
module Analysis = S4o_obs.Analysis
module Prom = S4o_obs.Prom
module Recorder = S4o_obs.Recorder
module Metrics = S4o_obs.Metrics
module Stats = S4o_obs.Stats
module Engine = S4o_device.Engine
module Spec = S4o_device.Device_spec

(* Run [f] with the global tracker freshly reset and enabled, disabling it
   again afterwards no matter what — other tests must not observe tracking. *)
let with_global_tracking f =
  let mem = Memory.global in
  Memory.reset mem;
  Memory.set_enabled mem true;
  Fun.protect
    ~finally:(fun () ->
      Memory.set_enabled mem false;
      Memory.reset mem)
    (fun () -> f mem)

(* {1 Memory accounting} *)

let test_memory_balance () =
  let t = Memory.create () in
  Memory.alloc t 100;
  Memory.alloc t 250;
  Memory.alloc t 50;
  Test_util.check_int "live after allocs" 400 (Memory.live_bytes t);
  Test_util.check_int "peak after allocs" 400 (Memory.peak_bytes t);
  Memory.free t 250;
  Test_util.check_int "live after free" 150 (Memory.live_bytes t);
  Test_util.check_int "peak stays" 400 (Memory.peak_bytes t);
  Memory.alloc t 100;
  Test_util.check_int "live climbs again" 250 (Memory.live_bytes t);
  Test_util.check_int "peak unchanged below high-water" 400 (Memory.peak_bytes t);
  Test_util.check_int "alloc count" 4 (Memory.alloc_count t);
  Test_util.check_int "free count" 1 (Memory.free_count t);
  Test_util.check_true "peak >= live" (Memory.peak_bytes t >= Memory.live_bytes t)

let test_memory_tags () =
  let t = Memory.create () in
  Memory.alloc t 10;
  Memory.with_tag t "matmul" (fun () ->
      Memory.alloc t 100;
      Test_util.check_string "dynamic tag active" "matmul" (Memory.current_tag t);
      Memory.with_tag t "im2col" (fun () -> Memory.alloc t 1000));
  Test_util.check_string "tag restored" "tensor" (Memory.current_tag t);
  Memory.alloc t ~tag:"explicit" 7;
  let find tag =
    List.find (fun (s : Memory.tag_stats) -> s.tag = tag) (Memory.tags t)
  in
  Test_util.check_int "default tag bytes" 10 (find "tensor").live_bytes;
  Test_util.check_int "matmul tag bytes" 100 (find "matmul").live_bytes;
  Test_util.check_int "nested tag bytes" 1000 (find "im2col").live_bytes;
  Test_util.check_int "explicit tag bytes" 7 (find "explicit").live_bytes;
  let sum =
    List.fold_left
      (fun acc (s : Memory.tag_stats) -> acc + s.live_bytes)
      0 (Memory.tags t)
  in
  Test_util.check_int "tag slices partition the total" (Memory.live_bytes t) sum;
  Test_util.check_true "tags sorted by peak descending"
    (match Memory.tags t with
    | a :: b :: _ -> a.peak_bytes >= b.peak_bytes
    | _ -> false)

let test_memory_generation () =
  let t = Memory.create () in
  Memory.alloc t 500;
  let old_gen = Memory.generation t in
  Memory.reset t;
  Test_util.check_int "reset zeroes live" 0 (Memory.live_bytes t);
  (* a straggler finaliser from before the reset must be dropped... *)
  Memory.free_gen t ~gen:old_gen 500;
  Test_util.check_int "stale free dropped" 0 (Memory.live_bytes t);
  Test_util.check_int "stale free not counted" 0 (Memory.free_count t);
  (* ...while a current-generation free still lands *)
  Memory.alloc t 64;
  Memory.free_gen t ~gen:(Memory.generation t) 64;
  Test_util.check_int "current-gen free applied" 0 (Memory.live_bytes t);
  Test_util.check_int "current-gen free counted" 1 (Memory.free_count t)

let test_memory_through_dense () =
  with_global_tracking (fun mem ->
      let keep = ref [] in
      for _ = 1 to 8 do
        keep := Dense.zeros [| 100; 100 |] :: !keep
      done;
      (* 8 buffers x 100*100 float64 = 8 * 80_000 bytes *)
      Test_util.check_int "live counts every Dense buffer" 640_000
        (Memory.live_bytes mem);
      Test_util.check_int "one alloc per buffer" 8 (Memory.alloc_count mem);
      Test_util.check_true "peak >= live"
        (Memory.peak_bytes mem >= Memory.live_bytes mem);
      let views_before = Memory.view_count mem in
      let v = Dense.with_shape (List.hd !keep) [| 10_000 |] in
      ignore (Dense.numel v);
      Test_util.check_int "with_shape counted as zero-copy view"
        (views_before + 1) (Memory.view_count mem);
      Test_util.check_int "views move no bytes" 640_000 (Memory.live_bytes mem);
      keep := [];
      Gc.full_major ();
      Gc.full_major ();
      Test_util.check_true "finalisers credited frees" (Memory.free_count mem > 0);
      Test_util.check_int "balance: allocs - frees = live buffers"
        (Memory.live_bytes mem)
        (80_000 * (Memory.alloc_count mem - Memory.free_count mem)))

(* Finaliser frees used to take the tracker's mutex; a GC slice inside
   [Memory.alloc] then ran a finaliser that re-locked it on the same domain
   and killed the process well before 500k allocations. *)
let test_memory_survives_sustained_allocation () =
  with_global_tracking (fun mem ->
      for _ = 1 to 2_000_000 do
        ignore (Sys.opaque_identity (Dense.zeros [| 16 |]))
      done;
      Gc.full_major ();
      Gc.full_major ();
      Test_util.check_int "every allocation recorded" 2_000_000
        (Memory.alloc_count mem);
      Test_util.check_int "every finaliser free applied" 2_000_000
        (Memory.free_count mem);
      Test_util.check_int "live bytes balance to zero" 0 (Memory.live_bytes mem);
      let tensor_tag =
        List.find (fun (s : Memory.tag_stats) -> s.tag = "tensor") (Memory.tags mem)
      in
      Test_util.check_int "per-tag slice balances too" 0 tensor_tag.live_bytes)

let test_disabled_profiling_is_cheap () =
  (* Disabled recorder and tracker must record nothing... *)
  let r = Recorder.create ~enabled:false () in
  let t = Memory.create ~enabled:false () in
  let iters = 200_000 in
  let spin recorder tracker =
    let t0 = Unix.gettimeofday () in
    for i = 0 to iters - 1 do
      Recorder.span recorder Recorder.Host "op" ~start:(float_of_int i)
        ~finish:(float_of_int i +. 0.5);
      Memory.alloc tracker 64;
      Memory.free tracker 64
    done;
    Unix.gettimeofday () -. t0
  in
  let disabled_time = spin r t in
  Test_util.check_int "disabled recorder kept nothing" 0 (Recorder.event_count r);
  Test_util.check_int "disabled tracker kept nothing" 0 (Memory.alloc_count t);
  (* ...and cost at most what the recording path costs (generous absolute
     slack so scheduler noise cannot flake the suite). *)
  let enabled_time = spin (Recorder.create ()) (Memory.create ()) in
  Test_util.check_true "disabled path not slower than enabled path"
    (disabled_time <= enabled_time +. 0.05)

(* {1 Trace analysis} *)

let span ?(track = Recorder.Host) name start finish =
  { Recorder.name; cat = ""; track; start; finish; args = [] }

(* A hand-built timeline with known answers:

   host:   [parent 0..10] containing [child 2..6]; [tail 12..14]
   device: [k1 4..9] [k2 11..13]

   wall = 14; host busy = 10 + 2 = 12; device busy = 5 + 2 = 7;
   overlap = (4..9 within parent) + (12..13 within tail) = 6;
   idle = 14 - union([0..10],[11..14],[4..9]) = 14 - 13 = 1;
   critical path: child(4) cannot chain, best chain is parent(10)+tail(2)
   -> 12?  no: parent 0..10 then k2 11..13 then nothing = 12; parent + tail
   = 12; k1 ends 9, tail 12..14: chain parent(10) -> k2(2)? k2 starts 11 >=
   10, finish 13; tail starts 12 < 13 so not after k2. parent(10)+k2(2)=12,
   parent(10)+tail(2)=12. Either way the length is 12. *)
let synthetic_spans =
  [
    span "parent" 0.0 10.0;
    span "child" 2.0 6.0;
    span "tail" 12.0 14.0;
    span ~track:Recorder.Device "k1" 4.0 9.0;
    span ~track:Recorder.Device "k2" 11.0 13.0;
  ]

let test_analysis_synthetic () =
  let r = Analysis.of_spans synthetic_spans in
  Test_util.check_close "wall" 14.0 r.Analysis.wall_seconds;
  Test_util.check_int "span count" 5 r.Analysis.span_count;
  Test_util.check_close "host busy" 12.0 r.Analysis.host_busy_seconds;
  Test_util.check_close "device busy" 7.0 r.Analysis.device_busy_seconds;
  Test_util.check_close "overlap" 6.0 r.Analysis.overlap_seconds;
  Test_util.check_close "idle" 1.0 r.Analysis.idle_seconds;
  Test_util.check_close "critical path" 12.0 r.Analysis.critical.Analysis.seconds;
  let find name =
    List.find (fun (o : Analysis.op_stat) -> o.name = name) r.Analysis.op_profile
  in
  (* parent: 10 total, minus child's 4 nested = 6 self *)
  Test_util.check_close "parent total" 10.0 (find "parent").total_seconds;
  Test_util.check_close "parent self excludes child" 6.0
    (find "parent").self_seconds;
  Test_util.check_close "child keeps its own time" 4.0 (find "child").self_seconds;
  Test_util.check_close "device span self" 5.0 (find "k1").self_seconds;
  let host_self, dev_self = Analysis.self_time_by_track r in
  Test_util.check_close "host self sums to host busy" 12.0 host_self;
  Test_util.check_close "device self sums to device busy" 7.0 dev_self

(* Minor-heap words per [Engine.dispatch] of a small kernel. *)
let dispatch_words engine =
  let op =
    {
      S4o_device.Op_info.name = "k";
      kind = Elementwise;
      flops = 1000;
      bytes_in = 64;
      bytes_out = 64;
    }
  in
  let n = 10_000 in
  ignore (Engine.dispatch engine op);
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Engine.dispatch engine op)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_default_engine_records_nothing () =
  (* A default engine keeps no timeline, so a long-lived runtime's memory
     stays flat, and its dispatches skip the span arguments that an enabled
     recorder's dispatch formats. *)
  let engine = Engine.create Spec.gtx1080 in
  let off = dispatch_words engine in
  Test_util.check_int "default engine recorded nothing" 0
    (Recorder.event_count (Engine.recorder engine));
  let on = dispatch_words (Engine.create ~recorder:(Recorder.create ()) Spec.gtx1080) in
  (* The four kernel-span arguments alone take about 30 words. *)
  Test_util.check_true
    (Printf.sprintf "%.1f words per dispatch off, %.1f on" off on)
    (off +. 30.0 <= on)

(* A long-lived default engine's memory is flat: [Engine.dispatch]
   observes one histogram sample per kernel, and a histogram keeps at most
   a fixed reservoir of them. What the engine reaches after N and after 2N
   dispatches differs by less than the N samples' one word each. *)
let test_dispatch_soak_flat () =
  let engine = Engine.create Spec.gtx1080 in
  let op =
    {
      S4o_device.Op_info.name = "k";
      kind = Elementwise;
      flops = 1000;
      bytes_in = 64;
      bytes_out = 64;
    }
  in
  let n = 50_000 in
  let words_after k =
    for _ = 1 to k do
      ignore (Engine.dispatch engine op)
    done;
    Gc.full_major ();
    Obj.reachable_words (Obj.repr engine)
  in
  let at_n = words_after n in
  let at_2n = words_after n in
  Test_util.check_true
    (Printf.sprintf "engine reaches %d words after N, %d after 2N" at_n at_2n)
    (at_2n - at_n < n / 10)

let run_lenet_step () =
  let engine = Engine.create ~recorder:(Recorder.create ()) Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let module O = S4o_nn.Optimizer.Make (Bk) in
  let rng = Prng.create 3 in
  let data = S4o_data.Dataset.synthetic_mnist rng ~n:32 in
  let batches = S4o_data.Dataset.batches data ~batch_size:32 in
  let model = M.lenet rng in
  let opt = O.sgd ~lr:0.05 model in
  ignore (T.fit ~epochs:1 ~after_step:(fun ts -> Bk.barrier ts) model opt batches);
  (engine, S4o_lazy.Lazy_runtime.stats rt)

let test_analysis_invariants_on_real_run () =
  let engine, _ = run_lenet_step () in
  let r = Analysis.of_recorder (Engine.recorder engine) in
  let eps = 1e-9 in
  Test_util.check_true "nonempty timeline" (r.Analysis.span_count > 0);
  Test_util.check_true "wall positive" (r.Analysis.wall_seconds > 0.0);
  Test_util.check_true "critical path <= wall"
    (r.Analysis.critical.Analysis.seconds <= r.Analysis.wall_seconds +. eps);
  Test_util.check_true "critical path nonempty"
    (r.Analysis.critical.Analysis.path <> []);
  (* chain ordering: each span starts at-or-after its predecessor ends *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Recorder.finish <= b.Recorder.start +. eps && ordered rest
    | _ -> true
  in
  Test_util.check_true "critical path is a valid chain"
    (ordered r.Analysis.critical.Analysis.path);
  let host_self, dev_self = Analysis.self_time_by_track r in
  Test_util.check_true "host self times sum to <= wall"
    (host_self <= r.Analysis.wall_seconds +. eps);
  Test_util.check_true "device self times sum to <= wall"
    (dev_self <= r.Analysis.wall_seconds +. eps);
  Test_util.check_true "busy <= wall per track"
    (r.Analysis.host_busy_seconds <= r.Analysis.wall_seconds +. eps
    && r.Analysis.device_busy_seconds <= r.Analysis.wall_seconds +. eps);
  List.iter
    (fun (o : Analysis.op_stat) ->
      Test_util.check_true ("self <= total for " ^ o.name)
        (o.self_seconds <= o.total_seconds +. eps))
    r.Analysis.op_profile

let test_analysis_trace_json_roundtrip () =
  let r = Recorder.create () in
  List.iter
    (fun (s : Recorder.span) ->
      Recorder.span r s.Recorder.track s.Recorder.name ~start:s.Recorder.start
        ~finish:s.Recorder.finish)
    synthetic_spans;
  let live = Analysis.of_recorder r in
  match Analysis.of_trace_json (S4o_obs.Chrome_trace.to_string r) with
  | Error e -> Alcotest.failf "of_trace_json: %s" e
  | Ok parsed ->
      let eps = 1e-6 in
      Test_util.check_int "span count survives" live.Analysis.span_count
        parsed.Analysis.span_count;
      Test_util.check_close ~eps "wall survives" live.Analysis.wall_seconds
        parsed.Analysis.wall_seconds;
      Test_util.check_close ~eps "critical path survives"
        live.Analysis.critical.Analysis.seconds
        parsed.Analysis.critical.Analysis.seconds;
      Test_util.check_close ~eps "overlap survives" live.Analysis.overlap_seconds
        parsed.Analysis.overlap_seconds

(* {1 Prometheus exposition} *)

let test_prom_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m "serve.completed" in
  Metrics.incr ~by:41 c;
  Metrics.incr c;
  let g = Metrics.gauge m "queue.depth" in
  Metrics.set g 7.0;
  Metrics.set g 3.0;
  let h = Metrics.histogram m "latency_seconds" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.5 ];
  let text = Prom.to_text m in
  match Prom.samples_of_text text with
  | Error e -> Alcotest.failf "parse back: %s" e
  | Ok samples ->
      let get ?labels name =
        match Prom.find samples ?labels name with
        | Some v -> v
        | None -> Alcotest.failf "missing sample %s" name
      in
      Test_util.check_close "counter value" 42.0 (get "s4o_serve_completed");
      Test_util.check_close "gauge last" 3.0 (get "s4o_queue_depth");
      Test_util.check_close "gauge peak" 7.0 (get "s4o_queue_depth_peak");
      Test_util.check_close "histogram count" 4.0 (get "s4o_latency_seconds_count");
      Test_util.check_close ~eps:1e-9 "histogram sum" 0.507
        (get "s4o_latency_seconds_sum");
      Test_util.check_close "+Inf bucket is cumulative total" 4.0
        (get "s4o_latency_seconds_bucket" ~labels:[ ("le", "+Inf") ]);
      Test_util.check_close "le=0.01 bucket cumulative" 3.0
        (get "s4o_latency_seconds_bucket" ~labels:[ ("le", "0.01") ]);
      Test_util.check_close "exact p50" 0.003
        (get "s4o_latency_seconds" ~labels:[ ("quantile", "0.5") ]);
      Test_util.check_true "TYPE lines present"
        (let lines = String.split_on_char '\n' text in
         List.exists
           (fun l -> l = "# TYPE s4o_latency_seconds histogram")
           lines
         && List.exists (fun l -> l = "# TYPE s4o_serve_completed counter") lines)

let test_prom_sanitize () =
  Test_util.check_string "dots become underscores" "s4o_lazy_cache_hits"
    (Prom.sanitize "lazy.cache_hits");
  Test_util.check_string "custom namespace" "svc_a_b" (Prom.sanitize ~namespace:"svc" "a-b");
  Test_util.check_string "no namespace" "x_y" (Prom.sanitize ~namespace:"" "x.y")

let test_empty_histogram_convention () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "empty" in
  Test_util.check_close "min of empty is 0" 0.0 (Metrics.hist_min h);
  Test_util.check_close "max of empty is 0" 0.0 (Metrics.hist_max h);
  Test_util.check_close "mean of empty is 0" 0.0 (Metrics.hist_mean h);
  Test_util.check_close "quantile of empty is 0" 0.0 (Metrics.quantile h 0.99);
  (* the exposition side of the same convention *)
  match Prom.samples_of_text (Prom.to_text m) with
  | Error e -> Alcotest.failf "parse back: %s" e
  | Ok samples ->
      Test_util.check_close "exported count is 0" 0.0
        (Option.get (Prom.find samples "s4o_empty_count"));
      Test_util.check_close "exported sum is 0" 0.0
        (Option.get (Prom.find samples "s4o_empty_sum"))

(* {1 Hardened Chrome_trace.validate} *)

let test_validate_rejects_bad_traces () =
  (* negative span duration *)
  (match
     S4o_obs.Chrome_trace.validate
       {|{"traceEvents":[{"name":"k","ph":"X","pid":1,"tid":2,"ts":10,"dur":-5}]}|}
   with
  | Ok _ -> Alcotest.fail "negative duration accepted"
  | Error e ->
      Test_util.check_true "negative-duration error message"
        (String.length e > 0));
  (* non-monotone counter series *)
  (match
     S4o_obs.Chrome_trace.validate
       {|{"traceEvents":[
          {"name":"c","ph":"C","pid":1,"tid":1,"ts":10},
          {"name":"c","ph":"C","pid":1,"tid":1,"ts":5}]}|}
   with
  | Ok _ -> Alcotest.fail "non-monotone counter accepted"
  | Error _ -> ());
  (* distinct series may interleave timestamps freely *)
  (match
     S4o_obs.Chrome_trace.validate
       {|{"traceEvents":[
          {"name":"c","ph":"C","pid":1,"tid":1,"ts":10},
          {"name":"c","ph":"C","pid":1,"tid":2,"ts":5},
          {"name":"d","ph":"C","pid":1,"tid":1,"ts":0}]}|}
   with
  | Ok n -> Test_util.check_int "independent series accepted" 3 n
  | Error e -> Alcotest.failf "independent counter series rejected: %s" e);
  (* a span without dur is malformed *)
  match
    S4o_obs.Chrome_trace.validate
      {|{"traceEvents":[{"name":"k","ph":"X","pid":1,"tid":2,"ts":10}]}|}
  with
  | Ok _ -> Alcotest.fail "span without dur accepted"
  | Error _ -> ()

let test_validate_accepts_real_export () =
  let engine = Engine.create ~recorder:(Recorder.create ()) Spec.gtx1080 in
  let rt = S4o_eager.Runtime.create engine in
  let module Bk = S4o_eager.Eager_backend.Make (struct
    let rt = rt
  end) in
  let g = Prng.create 5 in
  let a = Bk.of_dense (Dense.rand_normal g [| 4; 4 |]) in
  ignore (Bk.to_dense (Bk.relu (Bk.mul a a)));
  match
    S4o_obs.Chrome_trace.validate
      (S4o_obs.Chrome_trace.to_string (Engine.recorder engine))
  with
  | Ok n -> Test_util.check_true "events beyond the 3 metadata records" (n > 3)
  | Error e -> Alcotest.failf "real export rejected: %s" e

(* {1 Stats/engine integration} *)

let test_stats_tensor_fields_and_counter_track () =
  with_global_tracking (fun mem ->
      let engine, stats = run_lenet_step () in
      Test_util.check_true "stats carry live tensor bytes"
        (stats.Stats.tensor_live_bytes > 0);
      Test_util.check_true "stats carry peak tensor bytes"
        (stats.Stats.tensor_peak_bytes >= stats.Stats.tensor_live_bytes);
      Test_util.check_int "stats mirror the tracker" (Memory.live_bytes mem)
        stats.Stats.tensor_live_bytes;
      Test_util.check_true "allocs observed" (stats.Stats.tensor_allocs > 0);
      (* dispatch sampled the tracker into the recorder as a counter track *)
      let counters =
        List.filter
          (function
            | Recorder.Counter { name = "tensor_live_bytes"; _ } -> true
            | _ -> false)
          (Recorder.events (Engine.recorder engine))
      in
      Test_util.check_true "tensor_live_bytes counter track recorded"
        (List.length counters > 0);
      (* and the export (validated, so counter monotonicity holds) shows it *)
      let trace = S4o_obs.Chrome_trace.to_string (Engine.recorder engine) in
      (match S4o_obs.Chrome_trace.validate trace with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "trace with memory counters invalid: %s" e);
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Test_util.check_true "counter visible in Chrome trace JSON"
        (contains trace "tensor_live_bytes"))

let test_serve_peak_tensor_bytes () =
  with_global_tracking (fun _ ->
      let open S4o_serve in
      let cfg = Server.default_config ~replicas:1 ~warmup:false () in
      let t =
        Server.run cfg
          (Server.Open_loop
             { process = Load_gen.Poisson { rate = 4_000.0 }; requests = 40; seed = 2 })
      in
      Test_util.check_true "serving run reports peak tensor bytes"
        ((Server.stats t).Serve_stats.peak_tensor_bytes > 0))

let test_pool_busy_stats () =
  Pool.reset_stats ();
  let g = Prng.create 9 in
  let a = Dense.rand_normal g [| 96; 96 |] in
  (* 96^3 > the serial cutoff, so this runs on the pool *)
  ignore (Dense.matmul ~domains:4 a a);
  let s = Pool.stats () in
  Test_util.check_true "parallel run counted" (s.Pool.jobs >= 1);
  Test_util.check_true "chunks counted" (s.Pool.chunks >= s.Pool.jobs);
  Test_util.check_true "wall accumulated" (s.Pool.run_wall_seconds > 0.0);
  Test_util.check_true "caller domain busy" (s.Pool.domain_busy_seconds.(0) > 0.0);
  let fractions = Pool.busy_fractions s in
  Test_util.check_true "busy fractions nonempty" (fractions <> []);
  List.iter
    (fun (slot, f) ->
      Test_util.check_true
        (Printf.sprintf "fraction for domain %d in (0, 1+eps]" slot)
        (f > 0.0 && f <= 1.0 +. 0.25))
    fractions;
  Pool.reset_stats ();
  let z = Pool.stats () in
  Test_util.check_int "reset clears jobs" 0 z.Pool.jobs;
  Test_util.check_close "reset clears wall" 0.0 z.Pool.run_wall_seconds

let suite =
  let tc = Alcotest.test_case in
  [
    ( "profiling.memory",
      [
        tc "alloc/free balance and peak" `Quick test_memory_balance;
        tc "per-tag attribution and with_tag" `Quick test_memory_tags;
        tc "generation drops stale finaliser frees" `Quick test_memory_generation;
        tc "Dense buffers are accounted end to end" `Quick
          test_memory_through_dense;
        tc "2M tracked allocations survive and balance" `Quick
          test_memory_survives_sustained_allocation;
        tc "disabled profiling is near-free" `Slow test_disabled_profiling_is_cheap;
        tc "default engine records nothing" `Quick test_default_engine_records_nothing;
        tc "dispatch soak keeps memory flat" `Quick test_dispatch_soak_flat;
      ] );
    ( "profiling.analysis",
      [
        tc "synthetic timeline: exact numbers" `Quick test_analysis_synthetic;
        tc "real run: invariants hold" `Quick test_analysis_invariants_on_real_run;
        tc "trace JSON round-trip" `Quick test_analysis_trace_json_roundtrip;
      ] );
    ( "profiling.prom",
      [
        tc "exposition round-trips" `Quick test_prom_roundtrip;
        tc "name sanitization" `Quick test_prom_sanitize;
        tc "empty-histogram convention" `Quick test_empty_histogram_convention;
      ] );
    ( "profiling.validate",
      [
        tc "rejects negative durations and non-monotone counters" `Quick
          test_validate_rejects_bad_traces;
        tc "accepts real exports" `Quick test_validate_accepts_real_export;
      ] );
    ( "profiling.integration",
      [
        tc "stats tensor fields + counter track" `Quick
          test_stats_tensor_fields_and_counter_track;
        tc "serving reports peak tensor bytes" `Quick
          test_serve_peak_tensor_bytes;
        tc "pool busy fractions" `Quick test_pool_busy_stats;
      ] );
  ]
