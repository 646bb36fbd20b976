(** Activity analysis (§2.2, citing Tapenade): determines which values are
    {e varied} (differentiably depend on the inputs being differentiated
    with respect to) and {e useful} (differentiably contribute to the
    output). Values that are both are {e active} and need adjoint code.

    "Differentiably" matters: comparisons and [Floor] have zero derivative
    almost everywhere, so variedness and usefulness do not propagate through
    them, and a [Select]'s condition operand is likewise a non-differentiable
    use. The differentiability checker reports when such instructions sever
    an otherwise-active path.

    Both properties require a fixed point across the CFG because values flow
    between blocks through basic-block arguments: variedness is a forward
    and usefulness a backward {!Dataflow.Bools} problem. *)

type t = {
  varied : bool array array;  (** [varied.(block).(value)] *)
  useful : bool array array;
  active : bool array array;
}

(** [analyze ?wrt f] runs both dataflow analyses. [wrt] lists the entry
    argument indices to differentiate with respect to (default: all). *)
val analyze : ?wrt:int list -> Ir.func -> t

(** Is the function's return value varied (i.e. is the derivative not
    trivially zero)? *)
val return_is_varied : Ir.func -> t -> bool

(** Total number of active instruction results (excludes block params). *)
val active_inst_count : Ir.func -> t -> int
