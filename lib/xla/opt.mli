(** Optimization passes of the domain-specific compiler: common-subexpression
    elimination, constant folding, dead-code elimination, and the pass the
    paper leans on for §3.3's performance claims — operation fusion.

    All passes are graph → graph; nodes are immutable so rewrites substitute
    bottom-up. [constant_fold], the one pass whose output can break a rule
    its input kept (a kernel's literal result replaces a declared shape),
    validates its output graph with {!Hlo.validate}, raising
    {!Hlo.Invalid_hlo} with the stage ["opt:constant_fold"]. [cse] and
    [dead_code_elim] keep a valid graph valid and check nothing. *)

(** Merge nodes with equal {!Hlo.node_key}s (same op kind and parameters,
    shape and operands), and replace each [unbroadcast] to its operand's own
    shape by the operand, in the same traversal. *)
val cse : Hlo.graph -> Hlo.graph

(** Evaluate compute nodes whose operands are all literals. *)
val constant_fold : Hlo.graph -> Hlo.graph

(** Drop nodes unreachable from the outputs. *)
val dead_code_elim : Hlo.graph -> Hlo.graph

(** One fusion cluster. [root_first] lists members in topological order. *)
type cluster = { members : Hlo.node list; info : S4o_device.Op_info.t }

(** Greedy producer-consumer fusion: elementwise, data-movement and reduction
    nodes merge into the cluster of one of their compute operands, so chains
    like [conv → bias-add → relu] become one kernel. Contractions root their
    own clusters; parameters and literals stay outside. The returned clusters
    partition the compute nodes in topological order, and each cluster's
    {!S4o_device.Op_info.t} charges only the cluster's {e external} memory
    traffic — the fusion saving. *)
val fuse : Hlo.graph -> cluster list

(** [optimize g] runs cse → constant folding, in that order, each of
    which also drops the nodes no output reaches, once more after every
    round that folded a node (at most five rounds), and returns the
    optimized graph plus pass statistics. *)
val optimize : Hlo.graph -> Hlo.graph * (string * int) list
