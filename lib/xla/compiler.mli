(** JIT compilation of HLO graphs into executables, and their (simulated)
    execution.

    Compilation runs the optimization pipeline and fusion, and charges the
    host a simulated compile time proportional to graph size — "invoking the
    XLA JIT is computationally expensive" (§3.4), which is why the LazyTensor
    runtime caches executables by trace fingerprint.

    Compilation also lays out a flat execution plan ({!plan}): one step per
    node, parameters and literals first and then the fused clusters' members
    in cluster order, with every operand resolved to a slot (a step index)
    and every slot scheduled for release after its last consumer. It then
    assigns buffers ahead of time, as XLA does: every intermediate gets a
    region of one slab ({!slab}), sized by greedy-by-size colouring of the
    plan's live ranges, so that no two values live at once share memory,
    but that an elementwise kernel may write over an operand of its own
    shape that dies at it.

    Execution has two modes:
    - {!run}: computes real tensor values with the naive kernels while
      advancing the simulated device clock kernel by kernel, each
      intermediate written straight into its region of the calling
      domain's slab;
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

    The run walks the plan once, on the calling domain's slab
    ({!S4o_tensor.Dense.with_slab}), which grows to {!slab} elements if it
    is shorter and is never shrunk. Each step with a region runs its kernel
    into that region ({!S4o_tensor.Dense.into}), and the run raises if the
    kernel's result is elsewhere. A graph output is allocated fresh, since
    it outlives the run. Feeds and literals are used in place. Runs on one
    domain are sequential: a run that finds its domain's slab in use
    raises. With the sanitizer armed ({!S4o_tensor.Sanitizer.armed}), each
    region is filled with NaN once its value dies. Results are
    bit-identical to allocating every buffer fresh. The engine's metrics
    count, per run, [xla.buffers_reused] (the steps served from the slab)
    and [xla.buffers_fresh] (the allocations made fresh on the calling
    domain: outputs, and the slab when it grows), so a program allocates
    fresh only its outputs once the slab is big enough for it. *)
val run :
  executable -> S4o_device.Engine.t -> S4o_tensor.Dense.t array -> S4o_tensor.Dense.t array

(** Advance the engine's device clock as if executing, without computing any
    tensor values. *)
val simulate : executable -> S4o_device.Engine.t -> unit

(** {1 Execution plan} *)

type step = private {
  node : Hlo.node;
  operands : int array;  (** Slots of [node]'s inputs, all earlier steps. *)
  release : int array;
      (** Slots whose value dies at this step, freed after it runs: its
          last consumer, or that of a value written over it. A graph output
          is never released. *)
  dispatch : S4o_device.Op_info.t option;
      (** On the last member of each fused cluster: the kernel dispatched to
          the engine once the cluster's members have run. *)
  output : bool;  (** The step's value is a graph output. *)
  offset : int;
      (** Where the step's result lives in the slab, or -1 for a leaf or
          an output. The region is [Shape.numel node.shape] elements long,
          and is an operand's when the step is elementwise and writes over
          that operand as it dies. *)
}

(** The steps in execution order; slot [k] holds step [k]'s value. *)
val plan : executable -> step array

(** Elements of slab a run of the executable needs. *)
val slab : executable -> int
