(** The unified runtime-statistics snapshot.

    One record covers every layer of the simulated stack; both
    [S4o_eager.Runtime.stats] and [S4o_lazy.Lazy_runtime.stats] return it
    (each filling the fields its layer produces and inheriting the engine's
    fields), replacing the bespoke per-runtime shapes. Fields that a layer
    does not produce are zero: an eager runtime never cuts traces, a lazy
    runtime never dispatches ops eagerly. *)

type t = {
  ops_dispatched : int;  (** Eager per-op dispatches. *)
  traces_cut : int;  (** Lazy trace cuts (barriers + observations + auto). *)
  auto_cuts : int;  (** Cuts triggered by the automatic threshold. *)
  cache_hits : int;  (** Compiled-program cache hits. *)
  cache_misses : int;  (** Cache misses — each one is an XLA compile. *)
  ops_traced : int;  (** Total ops recorded across all cut traces. *)
  largest_trace : int;  (** Ops in the largest single trace. *)
  compile_seconds : float;  (** Simulated host time spent in the JIT. *)
  kernels_launched : int;  (** Device kernels enqueued. *)
  host_seconds : float;  (** Simulated host clock. *)
  device_busy_seconds : float;  (** Simulated device busy time. *)
  host_stall_seconds : float;  (** Host time spent blocked in syncs. *)
  max_pipeline_depth : float;
      (** Deepest the device queue ever ran ahead of the host (seconds). *)
  spans_recorded : int;  (** Events captured by the {!Recorder}. *)
  tensor_live_bytes : int;
      (** Off-heap tensor bytes currently live ({!Memory.global}); zero
          unless memory tracking is enabled. *)
  tensor_peak_bytes : int;  (** Peak off-heap tensor bytes. *)
  tensor_allocs : int;  (** Tensor buffer allocations observed. *)
  tensor_frees : int;  (** Tensor buffer frees observed (GC finalisers). *)
}

val zero : t

(** [(label, rendered value)] pairs, for table output. *)
val rows : t -> (string * string) list

val pp : Format.formatter -> t -> unit
