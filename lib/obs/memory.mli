(** Off-heap memory accounting.

    PR 3 moved every tensor payload into [Bigarray] storage, which the OCaml
    GC does not count: [Gc.allocated_bytes] sees only the small proxy
    blocks, so "what is peak tensor memory?" became unanswerable from the
    runtime. This tracker restores the answer. [S4o_tensor.Dense] reports
    every buffer allocation here (and registers a finaliser that reports the
    free when the GC collects the proxy), so live/peak tensor bytes,
    alloc/free counts, and per-tag attribution are available at any point —
    and the device engine samples {!live_bytes} into its {!Recorder} as a
    counter track, making tensor memory visible over time in exported
    Chrome traces.

    Tracking is {e off by default}: a disabled tracker costs one branch per
    allocation and registers no finalisers, so the un-profiled hot path is
    unaffected (covered by the profiler-overhead test). Enable it around a
    profiled region ([s4o_cli profile] does) and read the totals after.

    Thread-safety: mutations take a mutex — allocations happen on the main
    domain, but GC finalisers may run on any {!S4o_tensor.Pool} worker.
    Finaliser frees ({!free_gen}) never take it: a finaliser can fire at
    an allocation point inside a locked section on the same domain, so
    they go onto a lock-free queue that the next locked call or reader
    applies. *)

type t

(** Per-tag attribution slice. *)
type tag_stats = {
  tag : string;
  live_bytes : int;
  peak_bytes : int;
  allocs : int;
  frees : int;
}

(** [create ()] makes a tracker; [~enabled:false] (the default for
    {!global}) makes every recording call a cheap no-op. *)
val create : ?enabled:bool -> unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** The process-wide tracker that [S4o_tensor.Dense] reports into. *)
val global : t

(** {1 Recording} *)

(** [alloc t ~tag bytes] records a [bytes]-byte allocation attributed to
    [tag] (default: the current dynamic tag, see {!with_tag}). *)
val alloc : t -> ?tag:string -> int -> unit

(** [free t ~tag bytes] records a free. Frees are {e not} clamped: the
    caller is trusted to balance its own allocs, which keeps
    [allocs - frees = live] exact (the balance invariant tests pin). *)
val free : t -> ?tag:string -> int -> unit

(** Tracker epoch, bumped by {!reset}. Deferred frees (GC finalisers)
    capture it at allocation time and report through {!free_gen}, which
    drops frees from a previous epoch — a reset cannot drive [live]
    negative via stragglers. *)
val generation : t -> int

val free_gen : t -> gen:int -> ?tag:string -> int -> unit

(** [note_view t] counts a zero-copy aliasing view ([Dense.with_shape]):
    no bytes change hands, but the event is worth counting. *)
val note_view : t -> unit

(** {1 Dynamic tag scope}

    [with_tag t "im2col" f] attributes every allocation made during [f ()]
    (on this domain, without an explicit [~tag]) to ["im2col"]. Nests;
    the default tag is ["tensor"]. *)

val with_tag : t -> string -> (unit -> 'a) -> 'a

val current_tag : t -> string

(** {1 Reading} *)

val live_bytes : t -> int

(** Peak of [live_bytes] since creation or the last {!reset}; [>= live] at
    all times. *)
val peak_bytes : t -> int

val alloc_count : t -> int
val free_count : t -> int
val view_count : t -> int

(** Per-tag slices, ordered by peak bytes descending. *)
val tags : t -> tag_stats list

(** Zero every total and bump {!generation} (pending finaliser frees from
    before the reset are discarded). *)
val reset : t -> unit

(** {1 Rendering} *)

(** [(label, rendered value)] pairs for table output, mirroring
    {!Stats.rows}. *)
val rows : t -> (string * string) list

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
