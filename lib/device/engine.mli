(** A simulated asynchronous accelerator.

    §3.2: kernels are "dispatched to the accelerator to execute
    asynchronously and control is returned to the user's program before the
    kernel finishes"; as long as no Tensor contents are observed, "the user's
    program runs ahead and fills a pipeline of accelerator kernel
    invocations".

    The engine keeps two simulated clocks: the {e host} clock (advanced by
    dispatch overheads, tracing, compilation) and the {e device} clock (the
    time at which the device will have drained its kernel queue). Dispatching
    costs host time and enqueues device time; {!sync} advances the host clock
    to the device's completion time — the "observe a Tensor" stall.

    Every engine owns the observability plumbing for its simulated stack: an
    {!S4o_obs.Recorder} (kernel spans on the device track, sync stalls on
    the host track; runtimes add their own spans against the same clocks)
    and an {!S4o_obs.Metrics} registry shared by the layers above. *)

type t

(** [create ?recorder spec] — pass an enabled [recorder] to keep a timeline
    (to export or read it, or to share one across several engines). By
    default the engine's recorder is disabled, so a long run keeps no events
    and builds no span arguments. *)
val create : ?recorder:S4o_obs.Recorder.t -> Device_spec.t -> t

val spec : t -> Device_spec.t

(** The event recorder keyed to this engine's simulated clocks. *)
val recorder : t -> S4o_obs.Recorder.t

(** The metrics registry shared by every layer running on this engine. *)
val metrics : t -> S4o_obs.Metrics.t

(** Current simulated host time (seconds). *)
val host_time : t -> float

(** Simulated time at which all queued kernels finish. *)
val device_ready_at : t -> float

(** Advance the host clock only (dispatch overhead, tracing, compiling...). *)
val spend_host : t -> float -> unit

(** [with_host_span t name f] runs [f] and records a host-track span from the
    host clock at entry to the host clock at exit — the idiom for annotating
    work that advances the clock via {!spend_host}. *)
val with_host_span :
  t -> ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [dispatch t op] charges the kernel to the device queue: the kernel starts
    when both the host has issued it and the device is free. Records a
    device-track span and samples the pipeline depth. Returns the kernel's
    simulated completion time. *)
val dispatch : t -> Op_info.t -> float

(** Block the host until the device queue drains (recorded as a host-track
    ["sync"] stall span when it actually waits). *)
val sync : t -> unit

(** How far ahead of the host the device queue currently reaches — the
    pipeline depth in seconds. *)
val pipeline_depth : t -> float

(** {1 Statistics} *)

(** Engine-level slice of the unified snapshot (runtime-level fields are
    zero; the runtimes fill them in their own [stats]). *)
val stats : t -> S4o_obs.Stats.t

val kernels_launched : t -> int
val device_busy_time : t -> float
val host_stall_time : t -> float

(** Deepest the device queue ever ran ahead of the host, in seconds. *)
val max_pipeline_depth : t -> float

(** Reset clocks, statistics, metrics, and the recorded timeline. Tensor
    memory is accounted in {!S4o_obs.Memory}, not here. *)
val reset : t -> unit
