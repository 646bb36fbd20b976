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
  spans_recorded : int;
  tensor_live_bytes : int;
  tensor_peak_bytes : int;
  tensor_allocs : int;
  tensor_frees : int;
}

(* A cached program. [exe] outputs the cut's roots, then the pending nodes
   listed in [exported]; once [readback.wanted] has grown past [exported],
   the next cut with this key compiles the program again to export them. *)
type entry = {
  readback : Trace.readback;
  mutable exported : int list;
  mutable exe : S4o_xla.Compiler.executable;
  mutable last_used : int;
}

(* Above the at most 64 batch sizes a serving mix draws, so steady-state
   inference never evicts. *)
let cache_capacity = 256

type t = {
  engine : Engine.t;
  cache_enabled : bool;
  auto_cut_threshold : int option;
  cache : entry S4o_xla.Hlo.Table.t;
  mutable clock : int;  (* lookups so far: the LRU order of [last_used] *)
  (* All counters live in the engine's shared metrics registry, so one
     snapshot of the registry sees the whole stack. *)
  c_cuts : Metrics.counter;
  c_auto_cuts : Metrics.counter;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_recomputed : Metrics.counter;
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
let trace_overhead_per_op = 15e-6

let create ?(cache_enabled = true) ?auto_cut_threshold engine =
  (match auto_cut_threshold with
  | Some n when n <= 0 ->
      invalid_arg "Lazy_runtime.create: auto_cut_threshold must be positive"
  | Some _ | None -> ());
  let m = Engine.metrics engine in
  {
    engine;
    cache_enabled;
    auto_cut_threshold;
    cache = S4o_xla.Hlo.Table.create 16;
    clock = 0;
    c_cuts = Metrics.counter m "lazy.traces_cut";
    c_auto_cuts = Metrics.counter m "lazy.auto_cuts";
    c_hits = Metrics.counter m "lazy.cache_hits";
    c_misses = Metrics.counter m "lazy.cache_misses";
    c_evictions = Metrics.counter m "lazy.cache_evictions";
    c_recomputed = Metrics.counter m "lazy.recomputed_ops";
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

(* Drop the least recently used entry to make room for one more. *)
let evict_lru t =
  let oldest =
    S4o_xla.Hlo.Table.fold
      (fun key e acc ->
        match acc with
        | Some (_, (o : entry)) when o.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.cache None
  in
  Option.iter
    (fun (key, _) ->
      S4o_xla.Hlo.Table.remove t.cache key;
      Metrics.incr t.c_evictions)
    oldest

let compile t (cut : Trace.cut) exported =
  let graph =
    if exported = [] then cut.graph
    else
      S4o_xla.Hlo.graph_of_outputs
        (cut.graph.outputs @ List.map (fun i -> cut.hlo.(i)) exported)
  in
  let exe = S4o_xla.Compiler.compile ~engine:t.engine graph in
  Metrics.observe t.compile_times
    (S4o_xla.Compiler.stats exe).S4o_xla.Compiler.compile_seconds;
  exe

(* The cached program for [cut], compiled again when it has learned to
   export more nodes; a fresh one on a miss, kept only with the cache on. *)
let lookup t (cut : Trace.cut) =
  let rec_ = Engine.recorder t.engine in
  let key = S4o_xla.Hlo.key cut.graph in
  let event name =
    if Recorder.enabled rec_ then
      Recorder.instant rec_ Recorder.Host ~cat:"lazy"
        ~args:[ ("fingerprint", string_of_int (S4o_xla.Hlo.key_hash key)) ]
        name ~at:(Engine.host_time t.engine)
  in
  t.clock <- t.clock + 1;
  match
    if t.cache_enabled then S4o_xla.Hlo.Table.find_opt t.cache key else None
  with
  | Some e ->
      e.last_used <- t.clock;
      let wanted = e.readback.Trace.wanted in
      if List.compare_lengths e.exported wanted = 0 then begin
        Metrics.incr t.c_hits;
        event "cache-hit"
      end
      else begin
        Metrics.incr t.c_misses;
        event "cache-miss";
        e.exe <- compile t cut wanted;
        e.exported <- wanted
      end;
      e
  | None ->
      Metrics.incr t.c_misses;
      event "cache-miss";
      let e =
        {
          readback = { Trace.wanted = [] };
          exported = [];
          exe = compile t cut [];
          last_used = t.clock;
        }
      in
      if t.cache_enabled then begin
        if S4o_xla.Hlo.Table.length t.cache >= cache_capacity then evict_lru t;
        S4o_xla.Hlo.Table.replace t.cache key e
      end;
      e

let materialize t roots =
  let roots =
    dedup_roots (List.filter (fun r -> Trace.is_pending r) roots)
  in
  t.ops_since_cut <- 0;
  t.recent <- [];
  if roots <> [] then begin
    (* A root an earlier cut computed without exporting: that cut's program
       learns to export it. *)
    List.iter (fun (r : Trace.node) -> Option.iter Trace.want r.Trace.origin) roots;
    let rec_ = Engine.recorder t.engine in
    let outer =
      Recorder.begin_span rec_ Recorder.Host ~cat:"lazy" "materialize"
        ~at:(Engine.host_time t.engine)
    in
    let cut = Trace.cut roots in
    let n_ops = Array.length cut.pending in
    Metrics.incr t.c_cuts;
    Metrics.observe t.trace_sizes (float_of_int n_ops);
    (* Re-tracing overhead: paid on every iteration even on cache hits. *)
    Engine.with_host_span t.engine ~cat:"lazy"
      ~args:(if Recorder.enabled rec_ then [ ("ops", string_of_int n_ops) ] else [])
      "trace-record"
      (fun () ->
        Engine.spend_host t.engine
          (trace_overhead_per_op *. float_of_int n_ops));
    let e = lookup t cut in
    let results = roots @ List.map (fun i -> cut.pending.(i)) e.exported in
    let feeds =
      List.map
        (fun (l : Trace.node) ->
          match l.Trace.state with
          | Trace.Materialized v -> Some v
          | Trace.Simulated -> None
          | Trace.Pending -> assert false)
        cut.leaves
    in
    let reused0 = Metrics.counter_value t.c_reused
    and fresh0 = Metrics.counter_value t.c_fresh in
    if List.for_all Option.is_some feeds then begin
      let outputs =
        S4o_xla.Compiler.run e.exe t.engine
          (Array.of_list (List.map Option.get feeds))
      in
      List.iteri
        (fun i r -> Trace.settle r (Trace.Materialized outputs.(i)))
        results
    end
    else begin
      S4o_xla.Compiler.simulate e.exe t.engine;
      List.iter (fun r -> Trace.settle r Trace.Simulated) results
    end;
    (* A node that arrives with an origin was run by an earlier cut. What
       this cut ran but did not export remembers where, so that reading it
       back later teaches this program to export it. *)
    Array.iteri
      (fun index (n : Trace.node) ->
        if n.Trace.origin <> None then Metrics.incr t.c_recomputed;
        n.Trace.origin <-
          (if Trace.is_pending n then Some { Trace.program = e.readback; index }
           else None))
      cut.pending;
    if Recorder.enabled rec_ then begin
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
