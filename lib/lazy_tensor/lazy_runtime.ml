module Engine = S4o_device.Engine
module Recorder = S4o_obs.Recorder
module Metrics = S4o_obs.Metrics

type stats = S4o_obs.Stats.t = {
  ops_dispatched : int;
  traces_cut : int;
  auto_cuts : int;
  cache_hits : int;
  cache_misses : int;
  ops_traced : int;
  largest_trace : int;
  compile_seconds : float;
  kernels_launched : int;
  host_seconds : float;
  device_busy_seconds : float;
  host_stall_seconds : float;
  max_pipeline_depth : float;
  live_bytes : int;
  peak_bytes : int;
  spans_recorded : int;
  tensor_live_bytes : int;
  tensor_peak_bytes : int;
  tensor_allocs : int;
  tensor_frees : int;
}

type t = {
  engine : Engine.t;
  trace_overhead_per_op : float;
  cache_enabled : bool;
  auto_cut_threshold : int option;
  cache : S4o_xla.Compiler.executable S4o_xla.Hlo.Table.t;
  (* All counters live in the engine's shared metrics registry, so one
     snapshot of the registry sees the whole stack. *)
  c_cuts : Metrics.counter;
  c_auto_cuts : Metrics.counter;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_reused : Metrics.counter;  (* bumped by [Compiler.run] *)
  c_fresh : Metrics.counter;
  trace_sizes : Metrics.histogram;  (* ops per cut trace *)
  compile_times : Metrics.histogram;  (* seconds per JIT invocation *)
  mutable ops_since_cut : int;
  mutable recent : Trace.node list;
      (* nodes recorded since the last cut, newest first: the frontier an
         automatic cut materializes *)
}

(* Host cost of recording one trace op, paid every iteration (§3.4). *)
let default_trace_overhead = 15e-6

let create ?(trace_overhead_per_op = default_trace_overhead)
    ?(cache_enabled = true) ?auto_cut_threshold engine =
  (match auto_cut_threshold with
  | Some n when n <= 0 ->
      invalid_arg "Lazy_runtime.create: auto_cut_threshold must be positive"
  | Some _ | None -> ());
  let m = Engine.metrics engine in
  {
    engine;
    trace_overhead_per_op;
    cache_enabled;
    auto_cut_threshold;
    cache = S4o_xla.Hlo.Table.create 16;
    c_cuts = Metrics.counter m "lazy.traces_cut";
    c_auto_cuts = Metrics.counter m "lazy.auto_cuts";
    c_hits = Metrics.counter m "lazy.cache_hits";
    c_misses = Metrics.counter m "lazy.cache_misses";
    c_reused = Metrics.counter m "xla.buffers_reused";
    c_fresh = Metrics.counter m "xla.buffers_fresh";
    trace_sizes = Metrics.histogram m "lazy.trace_ops";
    compile_times = Metrics.histogram m "lazy.compile_seconds";
    ops_since_cut = 0;
    recent = [];
  }

let engine t = t.engine

let stats t =
  {
    (Engine.stats t.engine) with
    traces_cut = Metrics.counter_value t.c_cuts;
    auto_cuts = Metrics.counter_value t.c_auto_cuts;
    cache_hits = Metrics.counter_value t.c_hits;
    cache_misses = Metrics.counter_value t.c_misses;
    ops_traced = int_of_float (Metrics.hist_sum t.trace_sizes);
    largest_trace = int_of_float (Metrics.hist_max t.trace_sizes);
    compile_seconds = Metrics.hist_sum t.compile_times;
  }

let reset_stats t = Engine.reset t.engine

let dedup_roots roots =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (r : Trace.node) ->
      if Hashtbl.mem seen r.Trace.id then false
      else begin
        Hashtbl.add seen r.Trace.id ();
        true
      end)
    roots

let materialize t roots =
  let roots =
    dedup_roots (List.filter (fun r -> Trace.is_pending r) roots)
  in
  t.ops_since_cut <- 0;
  t.recent <- [];
  if roots <> [] then begin
    let rec_ = Engine.recorder t.engine in
    let outer =
      Recorder.begin_span rec_ Recorder.Host ~cat:"lazy" "materialize"
        ~at:(Engine.host_time t.engine)
    in
    let graph, leaves, pending = Trace.to_hlo roots in
    let n_ops = List.length pending in
    Metrics.incr t.c_cuts;
    Metrics.observe t.trace_sizes (float_of_int n_ops);
    (* Re-tracing overhead: paid on every iteration even on cache hits. *)
    Engine.with_host_span t.engine ~cat:"lazy"
      ~args:[ ("ops", string_of_int n_ops) ]
      "trace-record"
      (fun () ->
        Engine.spend_host t.engine
          (t.trace_overhead_per_op *. float_of_int n_ops));
    let key = S4o_xla.Hlo.key graph in
    let fp = S4o_xla.Hlo.key_hash key in
    let exe =
      match
        if t.cache_enabled then S4o_xla.Hlo.Table.find_opt t.cache key else None
      with
      | Some exe ->
          Metrics.incr t.c_hits;
          Recorder.instant rec_ Recorder.Host ~cat:"lazy"
            ~args:[ ("fingerprint", string_of_int fp) ]
            "cache-hit"
            ~at:(Engine.host_time t.engine);
          exe
      | None ->
          Metrics.incr t.c_misses;
          Recorder.instant rec_ Recorder.Host ~cat:"lazy"
            ~args:[ ("fingerprint", string_of_int fp) ]
            "cache-miss"
            ~at:(Engine.host_time t.engine);
          let exe = S4o_xla.Compiler.compile ~engine:t.engine graph in
          Metrics.observe t.compile_times
            (S4o_xla.Compiler.stats exe).S4o_xla.Compiler.compile_seconds;
          if t.cache_enabled then S4o_xla.Hlo.Table.replace t.cache key exe;
          exe
    in
    let feeds =
      List.map
        (fun (l : Trace.node) ->
          match l.Trace.state with
          | Trace.Materialized v -> Some v
          | Trace.Simulated -> None
          | Trace.Pending -> assert false)
        leaves
    in
    let reused0 = Metrics.counter_value t.c_reused
    and fresh0 = Metrics.counter_value t.c_fresh in
    if List.for_all Option.is_some feeds then begin
      let outputs =
        S4o_xla.Compiler.run exe t.engine
          (Array.of_list (List.map Option.get feeds))
      in
      List.iteri
        (fun i (r : Trace.node) ->
          r.Trace.state <- Trace.Materialized outputs.(i))
        roots
    end
    else begin
      S4o_xla.Compiler.simulate exe t.engine;
      List.iter (fun (r : Trace.node) -> r.Trace.state <- Trace.Simulated) roots
    end;
    let delta c c0 = string_of_int (Metrics.counter_value c - c0) in
    Recorder.end_span rec_ outer
      ~args:
        [
          ("ops", string_of_int n_ops);
          ("buffers_reused", delta t.c_reused reused0);
          ("buffers_fresh", delta t.c_fresh fresh0);
        ]
      ~at:(Engine.host_time t.engine)
  end

let barrier = materialize

(* S3.4 future work, implemented: automatic trace cutting. Each recorded op
   bumps a counter; once the pending fragment is "sufficiently large", the
   runtime cuts and dispatches it on its own, relieving the user of barrier
   annotations entirely. *)
let note_recorded t node =
  match t.auto_cut_threshold with
  | None -> ()
  | Some threshold ->
      t.ops_since_cut <- t.ops_since_cut + 1;
      t.recent <- node :: t.recent;
      if t.ops_since_cut >= threshold then begin
        Metrics.incr t.c_auto_cuts;
        Recorder.instant (Engine.recorder t.engine) Recorder.Host ~cat:"lazy"
          "auto-cut"
          ~at:(Engine.host_time t.engine);
        (* cut the whole recorded frontier, not just this node's ancestors:
           later nodes subsume earlier ones where they are connected, and
           disconnected chains get dispatched too, so no fragment is left to
           accumulate across steps *)
        materialize t t.recent
      end

let cache_size t = S4o_xla.Hlo.Table.length t.cache

let force t node =
  materialize t [ node ];
  Engine.sync t.engine;
  match node.Trace.state with
  | Trace.Materialized v -> v
  | Trace.Simulated ->
      invalid_arg "Lazy_runtime.force: node executed in timing-only mode"
  | Trace.Pending -> assert false
