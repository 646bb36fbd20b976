(** HLO graph checker and linter: reports every {!S4o_xla.Hlo.violations}
    entry as an error (where {!S4o_xla.Hlo.validate}, which the compiler
    calls on its input and after every pass, raises on the first), and lints
    sparse parameter numbering, dead nodes, duplicate literals, oversized
    pending regions, and — across cuts, via {!Hazard} — recompile hazards. *)

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

val errors : finding list -> finding list
val warnings : finding list -> finding list
val pp_finding : Format.formatter -> finding -> unit

(** All errors and lints for a graph: {!S4o_xla.Hlo.violations} as errors,
    then sparse parameter numbering, dead nodes, duplicate literals and
    (when [pending_limit] is given) an oversized region as warnings. *)
val check_graph : ?pending_limit:int -> Hlo.graph -> finding list

module Hazard : sig
  type t

  (** [create ~threshold ()] reports a skeleton once it has accumulated
      [threshold] (default 4) distinct structural keys ({!Hlo.key}). A
      skeleton is a graph's key with shapes and op parameters erased: op
      names, parameter positions, operand and output positions. *)
  val create : ?threshold:int -> unit -> t

  (** Record one cut; returns a [recompile-hazard] finding the first time
      a skeleton crosses the threshold. *)
  val observe : t -> Hlo.graph -> finding list

  (** Distinct keys per skeleton, largest first. *)
  val skeleton_counts : t -> int list
end

val finding_to_json : finding -> S4o_obs.Json.t

(** One analysis report: graph stats, fingerprint, and findings. *)
val report_to_json :
  graph_name:string -> Hlo.graph -> finding list -> S4o_obs.Json.t
