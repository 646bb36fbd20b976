(** The LazyTensor implementation of the Tensor API (§3.3). Identical surface
    to the eager backend — "end-users can switch between the two
    implementations by specifying a device" — but every op records a trace
    node instead of dispatching a kernel; execution happens when contents are
    observed ([to_dense]) or at an explicit {!Lazy_runtime.barrier}. *)

module type RUNTIME = sig
  val rt : Lazy_runtime.t
end

module Make (R : RUNTIME) = struct
  include S4o_ops.Catalog.Backend (struct
    type t = Trace.node

    let name = "lazy"
    let of_dense d = Trace.leaf d
    let to_dense t = Lazy_runtime.force R.rt t
    let shape (t : Trace.node) = t.Trace.shape

    let run op args =
      let n = Trace.record op args in
      Lazy_runtime.note_recorded R.rt n;
      n
  end)

  (** Shape-only leaf for timing-model workloads. *)
  let placeholder shape = Trace.placeholder shape

  (** Cut the trace here (§3.4's [LazyTensorBarrier]). *)
  let barrier ts = Lazy_runtime.barrier R.rt ts

  (** Capture the pending trace reachable from [roots] as an HLO graph,
      without executing anything or charging any simulated cost. The
      strategy benchmarks use this to hand one shared step graph to every
      framework model. *)
  let capture roots = (Trace.cut roots).graph
end
