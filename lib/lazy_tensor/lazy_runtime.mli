(** The LazyTensor runtime (§3.3–3.4): cuts traces, JIT-compiles them via the
    XLA-style compiler, and caches compiled programs by structural trace key so
    that "each unique trace is only compiled by XLA once". Tracing overhead
    is still paid on every iteration — the §3.4 limitation Table 3
    quantifies — because the full imperative programming model means traces
    can change at any point.

    The runtime operates in one of two value modes:
    - {e compute} (default): executing a trace computes real tensor values;
    - {e timing-only}: executions advance the simulated clocks but never
      compute values, enabling full-scale ResNet/ImageNet benchmarks.

    Every materialize is recorded on the engine's {!S4o_obs.Recorder} as a
    host-track span enclosing the trace-record span, the compile span (cache
    misses only), and cache-hit/miss instants — so a Chrome-trace export
    shows exactly where §3.4's re-tracing and JIT time goes. The span's args
    give the cut's op count, how many of the run's steps wrote into their
    planned region of the domain's slab ([buffers_reused]), and how many
    buffers the run allocated fresh: its outputs, and the slab when it
    grew ([buffers_fresh]). The engine's metrics registry accumulates the
    same two numbers as [xla.buffers_reused] and [xla.buffers_fresh]. *)

type t

(** The unified snapshot type — a re-export of {!S4o_obs.Stats.t}, so field
    access through this module keeps compiling while new code can treat it
    as the shared type. *)
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

(** The simulated host cost of recording one trace op, charged at every
    cut, cache hit or not (§3.4): 15 us. *)
val trace_overhead_per_op : float

(** [create ?cache_enabled ?auto_cut_threshold engine]:
    [cache_enabled:false] recompiles every trace (the cache ablation);
    [auto_cut_threshold] enables the automatic trace-cutting of §3.4's
    future work — once that many ops have been recorded since the last cut,
    the runtime dispatches the fragment on its own, with no user
    annotations. *)
val create :
  ?cache_enabled:bool ->
  ?auto_cut_threshold:int ->
  S4o_device.Engine.t ->
  t

val engine : t -> S4o_device.Engine.t

(** {1 Statistics — the unified surface}

    The same [stats]/[reset_stats] pair as [S4o_eager.Runtime]. *)

val stats : t -> stats

(** Zero all counters, clocks, metrics, and the recorded timeline. *)
val reset_stats : t -> unit

(** [materialize t roots] cuts the pending trace reachable from [roots],
    compiles it (or hits the program cache), and executes it. Roots become
    [Materialized] (compute mode, all leaves real) or [Simulated]. Does not
    synchronize: kernels drain asynchronously.

    {b Read-back.} A cut exports its roots and nothing else of its region,
    so a pending intermediate that later code reads (the training loop's
    [logits], forced after the step barrier) would run a second time. A
    cached program therefore learns what is read back. Each pending node
    the cut ran but did not export records its origin: the program's entry
    and the node's index in the cut's topological pending list, which
    names the same node in every cut with an equal key. When a node with
    an origin later becomes a root here (a [force] or a barrier root), that
    index is marked wanted on the entry. The next cut with the same key
    compiles the program once more, with outputs = roots followed by the
    wanted nodes, and the wanted nodes come out [Materialized] too. The
    feeds do not change; the recompile counts as a cache miss and its
    compile time goes into [lazy.compile_seconds]. With
    [cache_enabled:false] nothing is learned. The engine's
    [lazy.recomputed_ops] counter counts pending nodes that enter a cut
    already carrying an origin: ops an earlier cut already ran.

    Why not materialize every {e live} pending node at a barrier, the
    LazyTensor [LazyTensorBarrier] contract? Reachability cannot tell: every
    pending ancestor of a live node is reachable through {!Trace.node}'s
    [args], and a training step's [loss] keeps its whole tape reachable, so
    the GC calls every intermediate live. Exact liveness through weak
    references needs a [Gc.full_major] per barrier, 12.5 ms on average at
    a resnet-tiny training heap (2-vCPU VM), and every serving batch's
    barrier would pay it too. Learning from read-backs is deterministic and costs nothing
    when nothing is read back. *)
val materialize : t -> Trace.node list -> unit

(** [LazyTensorBarrier()] (§3.4): explicitly cut and dispatch the trace at
    this program point. Identical to {!materialize}; the distinct name
    mirrors the user-facing API, and the training loop calls it after each
    optimizer step on the user's behalf. From the second step with an equal
    trace on, the barrier's program also exports whatever the previous
    step read back after it (see {!materialize}), so a step that reads its
    [logits] runs once. *)
val barrier : t -> Trace.node list -> unit

(** Called by the backend after recording each op; triggers an automatic cut
    when the threshold is reached. A no-op unless [auto_cut_threshold] was
    given. *)
val note_recorded : t -> Trace.node -> unit

(** Number of distinct compiled programs currently cached — one per unique
    structural trace key ({!S4o_xla.Hlo.key}); a hit compares the full key,
    not just its hash. A serving workload that buckets its batch shapes
    keeps this bounded by the bucket count (times distinct models), which is
    the point of shape bucketing: steady-state traffic hits the cache
    instead of growing it. A training loop keeps it flat once its step
    trace repeats, which needs step-varying scalars (Adam's bias
    corrections, a scheduled learning rate) fed as tensors, not baked in
    as [scale] constants. Never above {!cache_capacity}. *)
val cache_size : t -> int

(** The program cache holds at most this many entries (256); a miss on a
    full cache evicts the least recently used one and bumps the engine's
    [lazy.cache_evictions] counter. *)
val cache_capacity : int

(** Force a node's concrete contents: materializes if needed and blocks the
    simulated host until the device drains. Raises [Invalid_argument] for
    timing-only nodes. *)
val force : t -> Trace.node -> S4o_tensor.Dense.t
