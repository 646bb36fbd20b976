(** LazyTensor trace nodes (§3.3): instead of dispatching to a fixed set of
    pre-compiled kernels, each Tensor operation "simply records a dynamic
    trace of operations to be executed at a later time". Traces are in-memory
    DAGs (Figure 4); cutting a trace converts the pending region into an HLO
    graph whose parameters are the already-materialized leaves.

    A node's lifecycle: born [Pending] (recorded, not executed); after the
    trace containing it is cut and run, the nodes the user asked for become
    [Materialized] (value on "device") or [Simulated] (timing-only mode:
    the value was never computed, only the clock advanced). Materialized and
    simulated nodes act as leaves — parameters — of later traces, which is
    what keeps trace fingerprints independent of parameter {e values} and
    makes the program cache effective across training steps. *)

open S4o_tensor

type state =
  | Pending
  | Materialized of Dense.t
  | Simulated

(* The part of a cached program its nodes point back to: which of the
   program's pending nodes, by index, later code read back. *)
type readback = { mutable wanted : int list }

type origin = { program : readback; index : int }

type node = {
  id : int;
  op : S4o_ops.Catalog.op option;  (** [None] for data leaves. *)
  mutable args : node list;
  shape : Shape.t;
  mutable state : state;
  mutable origin : origin option;
}

let want { program; index } =
  if not (List.mem index program.wanted) then
    program.wanted <- List.merge Int.compare [ index ] program.wanted

let counter = ref 0

let next_id () =
  incr counter;
  !counter

let leaf value =
  {
    id = next_id ();
    op = None;
    args = [];
    shape = Dense.shape value;
    state = Materialized value;
    origin = None;
  }

(** A shape-only leaf for timing-model runs: behaves like device data whose
    contents are never observed. *)
let placeholder shape =
  { id = next_id (); op = None; args = []; shape; state = Simulated; origin = None }

let record (op : S4o_ops.Catalog.op) args =
  {
    id = next_id ();
    op = Some op;
    args;
    shape = op.out_shape;
    state = Pending;
    origin = None;
  }

let is_pending n = n.state = Pending

let settle n state =
  n.state <- state;
  n.args <- []

(** The pending region reachable from [roots], in topological order, stopping
    at non-pending nodes (the future graph parameters, in discovery order). *)
let pending_region roots =
  let visited = Hashtbl.create 64 in
  let pending = ref [] in
  let leaves = ref [] in
  let rec visit n =
    if not (Hashtbl.mem visited n.id) then begin
      Hashtbl.add visited n.id ();
      if is_pending n then begin
        List.iter visit n.args;
        pending := n :: !pending
      end
      else leaves := n :: !leaves
    end
  in
  List.iter visit roots;
  (List.rev !pending, List.rev !leaves)

type cut = {
  graph : S4o_xla.Hlo.graph;
  leaves : node list;
  pending : node array;
  hlo : S4o_xla.Hlo.node array;
}

let cut roots =
  let pending, leaves = pending_region roots in
  let hlo_of : (int, S4o_xla.Hlo.node) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i l -> Hashtbl.add hlo_of l.id (S4o_xla.Hlo.param ~index:i ~shape:l.shape))
    leaves;
  let pending = Array.of_list pending in
  let hlo =
    Array.map
      (fun n ->
        match n.op with
        | None -> assert false
        | Some op ->
            let inputs = List.map (fun a -> Hashtbl.find hlo_of a.id) n.args in
            let h = S4o_xla.Hlo.op op inputs in
            Hashtbl.add hlo_of n.id h;
            h)
      pending
  in
  let outputs =
    List.filter_map
      (fun r -> if is_pending r then Some (Hashtbl.find hlo_of r.id) else None)
      roots
  in
  { graph = S4o_xla.Hlo.graph_of_outputs outputs; leaves; pending; hlo }

let to_hlo roots =
  let c = cut roots in
  (c.graph, c.leaves, Array.to_list c.pending)
