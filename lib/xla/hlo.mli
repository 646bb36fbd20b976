(** An HLO-like graph intermediate representation — the target of LazyTensor
    tracing (§3.3) and the input of the domain-specific compiler.

    Nodes are immutable DAG vertices. A compute node carries the
    {!S4o_ops.Catalog.op} it applies: its kind (the op and its parameters),
    its cost metadata and a kernel giving the operation's semantics on
    {!S4o_tensor.Dense} values. Parameters are fed at execution time;
    literals are embedded constants. The record is exposed because the
    optimizer, fuser, and executor pattern-match on it throughout. *)

open S4o_tensor

type node = {
  id : int;  (** Globally unique; not part of the structural key. *)
  shape : Shape.t;
  inputs : node list;
  role : role;
}

and role =
  | Compute of S4o_ops.Catalog.op
      (** The op applied to [inputs]; the node's key compares only its
          [kind]. *)
  | Param of int  (** Fed at execution; the int is the parameter position. *)
  | Literal of Dense.t

val param : index:int -> shape:Shape.t -> node
val literal : Dense.t -> node

(** [op o inputs]: a compute node applying catalog op [o] to [inputs]. *)
val op : S4o_ops.Catalog.op -> node list -> node

(** The op name ({!S4o_ops.Catalog.name}), ["parameter"] or ["constant"]. *)
val name : node -> string

(** {1 Graphs} *)

type graph = { outputs : node list; nodes : node list  (** topological order *) }

(** Topologically sort all nodes reachable from the outputs (this is also the
    dead-code elimination primitive). *)
val graph_of_outputs : node list -> graph

val size : graph -> int

(** Parameter nodes, sorted by parameter position. *)
val params : graph -> node list

(** {1 Validation} *)

exception Invalid_hlo of string

(** Every structural error in a graph, in node order, as (node id, rule,
    message). Rules: ["role"] (a parameter or literal with inputs),
    ["arity"] and ["shape"] (a compute node's op, rebuilt with
    {!S4o_ops.Catalog.of_kind} from its inputs' shapes, rejects them or
    gives another shape than the node declares), and ["param"] (a duplicate
    or negative parameter index). *)
val violations : graph -> (int * string * string) list

(** Raises {!Invalid_hlo} naming the first of {!violations}, prefixed by
    [stage] when given. {!Compiler.compile} validates its input (stage
    ["compile"]) and {!Opt.constant_fold} its output
    (["opt:constant_fold"]). *)
val validate : ?stage:string -> graph -> unit

(** {1 Structural keys}

    A node's key is its role (for a compute node, the op kind with its
    parameters; for a literal, its contents), its shape, and its operands,
    numbered by the caller. Floats compare by bit pattern, so [scale 0.0]
    and [scale (-0.0)], or two constants that agree to many digits, never
    share a key. *)

type node_key

val node_key : input:(node -> int) -> node -> node_key

(** Nodes by key: CSE numbers operands by node id. *)
module Node_table : Hashtbl.S with type key = node_key

(** The structural key of a graph: every node's key, with operands numbered
    by topological position, and the output positions. Equal keys mean the
    same program regardless of node identity — the key of the XLA-program
    cache (§3.4). Parameter {e values} do not participate, so the cache hits
    across training steps. *)
type key

val key : graph -> key
val equal_key : key -> key -> bool

(** Computed once, when the key is built. *)
val key_hash : key -> int

(** Programs by key. A lookup compares the full key, not just its hash. *)
module Table : Hashtbl.S with type key = key

(** [key_hash (key g)]: equal graphs fingerprint equal; unequal ones may
    collide. *)
val fingerprint : graph -> int

(** {1 Rendering (Figure 4)} *)

val pp_node : Format.formatter -> node -> unit
val pp_graph : Format.formatter -> graph -> unit
val to_string : graph -> string

(** GraphViz rendering of the trace DAG, as in Figure 4. *)
val to_dot : ?name:string -> graph -> string
