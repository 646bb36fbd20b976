(** HLO graph checker and linter: rebuilds every compute node's op from its
    kind and input shapes with {!S4o_ops.Catalog.of_kind} and reports
    rejected inputs and disagreeing declared shapes as errors; lints dead
    nodes, duplicate literals, oversized pending regions, and — across
    cuts, via {!Hazard} — recompile hazards. Checked mode runs {!run} on
    every trace cut and after every compiler pass. *)

open S4o_xla

type severity = Error | Warning

type finding = {
  severity : severity;
  rule : string;  (** Stable rule id: ["shape"], ["arity"], ["role"],
                      ["param"], ["dead-node"], ["dup-literal"],
                      ["pending-region"], ["recompile-hazard"]. *)
  node : int option;
  message : string;
}

exception Check_error of string

val errors : finding list -> finding list
val warnings : finding list -> finding list
val pp_finding : Format.formatter -> finding -> unit

(** Arity, role, and shape findings for one node. *)
val check_node : Hlo.node -> finding list

(** Advisory lints only: dead nodes, duplicate literals, and (when
    [pending_limit] is given) an oversized region. *)
val lint_graph : ?pending_limit:int -> Hlo.graph -> finding list

(** All errors and lints for a graph: per-node checks, parameter-numbering
    density (distinct, contiguous from 0), plus {!lint_graph}. *)
val check_graph : ?pending_limit:int -> Hlo.graph -> finding list

(** Raise {!Check_error} naming [stage] if the graph has errors (lints do
    not raise). The checked-mode hook body. *)
val run : stage:string -> Hlo.graph -> unit

module Hazard : sig
  type t

  (** [create ~threshold ()] reports a skeleton once it has accumulated
      [threshold] (default 4) distinct fingerprints. *)
  val create : ?threshold:int -> unit -> t

  val reset : t -> unit

  (** Shape-free structural hash of a graph (op names, roles, topology). *)
  val skeleton : Hlo.graph -> int

  (** Record one cut; returns a [recompile-hazard] finding the first time
      a skeleton crosses the threshold. *)
  val observe : t -> Hlo.graph -> finding list

  (** Distinct fingerprints per skeleton, largest first. *)
  val skeleton_counts : t -> int list
end

val finding_to_json : finding -> S4o_obs.Json.t

(** One analysis report: graph stats, fingerprint, and findings. *)
val report_to_json :
  graph_name:string -> Hlo.graph -> finding list -> S4o_obs.Json.t
