(** Generic dataflow fixpoint engine over MSIL CFGs, plus the standard
    instances (liveness, reaching definitions, constant propagation). The
    verifier's lints and {!Activity} run on it.

    Inter-block flow in MSIL happens only through branch arguments; both
    solvers bake that coupling in. See {!Make.forward} / {!Make.backward}. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool

  (** Least upper bound; must be monotone for the fixpoint to terminate. *)
  val join : t -> t -> t
end

(** Successor list [(target, branch args)] of a block. *)
val branches : Ir.block -> (int * int array) list

(** Blocks reachable from the entry, as a mask indexed by block id. *)
val reachable : Ir.func -> bool array

module Make (L : LATTICE) : sig
  type facts = L.t array array
  (** [facts.(bi).(v)] is the fact for value [v] of block [bi] (values are
      block-local: parameters then instruction results). *)

  (** [forward f ~entry ~transfer] solves a forward problem: entry-block
      parameter [p] starts at [entry p]; instruction facts come from
      [transfer ~bi ~ii inst get] (where [get u] reads an operand fact);
      non-entry parameters join the incoming branch-argument facts. *)
  val forward :
    Ir.func ->
    entry:(int -> L.t) ->
    transfer:(bi:int -> ii:int -> Ir.inst -> (int -> L.t) -> L.t) ->
    facts

  (** [backward f ~term_seed ~transfer] solves a backward problem:
      [term_seed] lists direct [(value, fact)] demands of a terminator
      (branch arguments are handled by the engine — target-parameter facts
      flow back onto them); [transfer] lists the operand contributions of an
      instruction given its result fact. *)
  val backward :
    Ir.func ->
    term_seed:(bi:int -> Ir.terminator -> (int * L.t) list) ->
    transfer:(bi:int -> ii:int -> Ir.inst -> result:L.t -> (int * L.t) list) ->
    facts
end

(** Booleans with [false] at bottom and [||] as join: a value's fact is
    [true] when some path makes it so. *)
module Bool_lattice : LATTICE with type t = bool

(** The boolean solver; liveness and {!Activity} use it. *)
module Bools : module type of Make (Bool_lattice)

module Liveness : sig
  (** [analyze f].(bi).(v): value [v] of block [bi] contributes to the
      result. *)
  val analyze : Ir.func -> bool array array

  (** Instructions with dead results, [(block, inst index)]. Empty after
      {!Passes.dead_code_elim} — the value-numbering density invariant
      the verifier lints on. *)
  val dead_insts : Ir.func -> (int * int) list
end

module Reaching : sig
  type def = Arg of int | Def of int * int

  module S : Set.S with type elt = def

  val analyze : Ir.func -> S.t array array

  (** Reachable non-entry block parameters fed by exactly one definition
      site, [(block, param)] — sinkable past the branch. *)
  val redundant_params : Ir.func -> (int * int) list
end

module Const_prop : sig
  type value = Bot | Const of float | Top

  val analyze : Ir.func -> value array array

  (** Reachable conditional branches on a known-constant condition,
      [(block, constant)]. *)
  val constant_branches : Ir.func -> (int * float) list
end
