(** LazyTensor trace nodes (§3.3): instead of dispatching to pre-compiled
    kernels, each Tensor operation "simply records a dynamic trace of
    operations to be executed at a later time". Traces are in-memory DAGs
    (Figure 4); cutting a trace converts the pending region into an HLO
    graph whose parameters are the already-materialized leaves.

    A node's lifecycle: born [Pending] (recorded, not executed); after the
    trace containing it is cut and run it becomes [Materialized] (value on
    "device") or [Simulated] (timing-only mode: only the simulated clock
    advanced). Non-pending nodes act as leaves — parameters — of later
    traces, which keeps trace fingerprints independent of parameter values
    and makes the program cache effective across training steps. *)

open S4o_tensor

type state =
  | Pending
  | Materialized of Dense.t
  | Simulated

(** The part of a cached program that its nodes point back to: the
    indices, into the program's {!cut} [pending] array and in ascending
    order, of the nodes that later code read back. The runtime compiles
    the program again to export them. *)
type readback = { mutable wanted : int list }

(** Where a pending node was computed by an earlier cut that did not
    export it: that cut's program and the node's index in its [pending]. *)
type origin = { program : readback; index : int }

type node = {
  id : int;
  op : S4o_ops.Catalog.op option;  (** [None] for data leaves. *)
  mutable args : node list;  (** Emptied once the node is no longer pending. *)
  shape : Shape.t;
  mutable state : state;
  mutable origin : origin option;
      (** Set by the runtime on the pending nodes a cut computed but did
          not export; [None] otherwise. *)
}

(** [want o]: add [o.index] to [o.program.wanted]. *)
val want : origin -> unit

(** A concrete-data leaf ("device data"). *)
val leaf : Dense.t -> node

(** A shape-only leaf for timing-model runs: behaves like device data whose
    contents are never observed. *)
val placeholder : Shape.t -> node

(** Record one op application (shape comes from the catalog entry). *)
val record : S4o_ops.Catalog.op -> node list -> node

val is_pending : node -> bool

(** [settle n state] gives a pending node its computed [state] and drops
    its [args]: a node that is no longer pending is a leaf of every later
    trace, and a result the caller keeps must not keep the whole trace that
    computed it alive. *)
val settle : node -> state -> unit

(** The pending region reachable from the roots, in topological order, plus
    the non-pending leaves it stops at (the future graph parameters, in
    discovery order). *)
val pending_region : node list -> node list * node list

(** A pending region converted to HLO. *)
type cut = {
  graph : S4o_xla.Hlo.graph;  (** Its outputs are the pending roots, in order. *)
  leaves : node list;  (** In parameter order. *)
  pending : node array;  (** In topological order. *)
  hlo : S4o_xla.Hlo.node array;
      (** [hlo.(i)] computes [pending.(i)]: the map is one to one, so an
          index into [pending] names the same node in every cut with an
          equal {!S4o_xla.Hlo.key}. *)
}

(** Convert the pending region reachable from the roots to HLO. The graph
    is not validated here: a program runs only after
    {!S4o_xla.Compiler.compile} has validated a graph with an equal key. *)
val cut : node list -> cut

(** [cut] as a triple: the graph, the leaves in parameter order, and the
    pending nodes in topological order. The runtime cuts with {!cut}; this
    wrapper is what perfbench's XLA replay calls. *)
val to_hlo : node list -> S4o_xla.Hlo.graph * node list * node list
