(** JIT compilation of HLO graphs into executables, and their (simulated)
    execution.

    Compilation runs the optimization pipeline and fusion, and charges the
    host a simulated compile time proportional to graph size — "invoking the
    XLA JIT is computationally expensive" (§3.4), which is why the LazyTensor
    runtime caches executables by trace fingerprint.

    Compilation also lays out a flat execution plan ({!plan}): one step per
    node, parameters and literals first and then the fused clusters' members
    in cluster order, with every operand resolved to a slot (a step index)
    and every slot scheduled for release after its last consumer.

    Execution has two modes:
    - {!run}: computes real tensor values with the naive kernels while
      advancing the simulated device clock kernel by kernel, recycling each
      dead intermediate's buffer for later allocations of this run and of
      the executable's next runs;
    - {!simulate}: advances the clock only, for benchmarks that measure the
      timing model on workloads too large to execute for real. *)

type executable

type compile_stats = {
  input_nodes : int;
  optimized_nodes : int;
  clusters : int;
  compile_seconds : float;  (** Simulated compile cost charged to the host. *)
}

(** [compile ?engine g] validates [g] ({!Hlo.validate}, raising
    {!Hlo.Invalid_hlo}), then optimizes, fuses, and packages it. When
    [engine] is given, the simulated compile time is charged to its host
    clock. *)
val compile : ?engine:S4o_device.Engine.t -> Hlo.graph -> executable

val stats : executable -> compile_stats

(** Estimated device time of one execution (sum of fused-kernel times). *)
val estimated_run_time : S4o_device.Device_spec.t -> executable -> float

(** [run exe engine feeds] executes for real: [feeds.(i)] is parameter [i].
    Kernels are dispatched asynchronously to [engine]; the caller decides
    when to {!S4o_device.Engine.sync}.

    The run walks the plan once. After each step it releases the slots that
    step consumed for the last time; a released buffer goes back to the
    calling domain's {!S4o_tensor.Dense.Arena}, which serves later
    allocations of its class or below, once no live slot shares it. A slot
    shares an operand's buffer when the kernel returned that storage itself
    ([unbroadcast] to the same shape). Only buffers a kernel allocated in
    this run are recycled: feeds, literals, outputs and anything aliasing
    them never are. An output's kernel allocates fresh
    ({!S4o_tensor.Dense.Arena.escaping}), since its result leaves the run.
    The pool is shared by every executable, so a run takes its
    intermediates from what earlier runs released, its own or another
    program's, and a program run again allocates fresh only its outputs.
    Kernel scratch comes from each domain's own cache. Results are
    bit-identical to allocating every buffer fresh. The engine's metrics
    count, per run, [xla.buffers_reused] (allocations served from the pool)
    and [xla.buffers_fresh] (the rest made on the calling domain). *)
val run :
  executable -> S4o_device.Engine.t -> S4o_tensor.Dense.t array -> S4o_tensor.Dense.t array

(** Advance the engine's device clock as if executing, without computing any
    tensor values. *)
val simulate : executable -> S4o_device.Engine.t -> unit

(** [peak_memory ?donated exe] estimates peak device memory of one execution
    by replaying the plan: parameters and literals are resident,
    intermediates are freed at their release step, and parameters listed in
    [donated] alias a shape-matching output buffer (XLA's input–output
    buffer aliasing, §4.2). *)
val peak_memory : ?donated:int list -> executable -> int

(** {1 Execution plan} *)

type step = private {
  node : Hlo.node;
  operands : int array;  (** Slots of [node]'s inputs, all earlier steps. *)
  release : int array;
      (** Slots whose last consumer is this step, freed after it runs. A
          graph output is never released. *)
  dispatch : S4o_device.Op_info.t option;
      (** On the last member of each fused cluster: the kernel dispatched to
          the engine once the cluster's members have run. *)
  output : bool;  (** The step's value is a graph output. *)
}

(** The steps in execution order; slot [k] holds step [k]'s value. *)
val plan : executable -> step array
