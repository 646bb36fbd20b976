(** An HLO-like graph intermediate representation — the target of LazyTensor
    tracing (§3.3) and the input of the domain-specific compiler.

    Nodes are immutable DAG vertices. A compute node carries the
    {!S4o_ops.Catalog.op} it applies: its kind (the op and its parameters:
    what CSE and trace keys compare), cost metadata and kernel. Parameters
    are fed at execution time; literals are embedded constants. *)

open S4o_tensor
module Catalog = S4o_ops.Catalog

type node = { id : int; shape : Shape.t; inputs : node list; role : role }

and role =
  | Compute of Catalog.op
  | Param of int  (** Fed at execution; the int is the parameter position. *)
  | Literal of Dense.t

let counter = ref 0

let next_id () =
  incr counter;
  !counter

let param ~index ~shape = { id = next_id (); shape; inputs = []; role = Param index }

let literal value =
  { id = next_id (); shape = Dense.shape value; inputs = []; role = Literal value }

let op (o : Catalog.op) inputs =
  { id = next_id (); shape = o.out_shape; inputs; role = Compute o }

let name n =
  match n.role with
  | Compute o -> Catalog.name o.kind
  | Param _ -> "parameter"
  | Literal _ -> "constant"

(** {1 Graphs} *)

type graph = { outputs : node list; nodes : node list  (** topological order *) }

(** Topologically sort all nodes reachable from the outputs. *)
let graph_of_outputs outputs =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit n =
    if not (Hashtbl.mem visited n.id) then begin
      Hashtbl.add visited n.id ();
      List.iter visit n.inputs;
      order := n :: !order
    end
  in
  List.iter visit outputs;
  { outputs; nodes = List.rev !order }

let size g = List.length g.nodes

let params g =
  List.filter_map
    (fun n -> match n.role with Param i -> Some (i, n) | Compute _ | Literal _ -> None)
    g.nodes
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(** {1 Validation} *)

exception Invalid_hlo of string

(* A compute node's declared shape must be what its op gives on its inputs'
   shapes; the catalog's constructors are the only shape rules. *)
let node_violations n =
  let bad rule message = [ (n.id, rule, message) ] in
  match n.role with
  | Param _ | Literal _ ->
      if n.inputs = [] then []
      else bad "role" (Printf.sprintf "%s node has %d inputs" (name n) (List.length n.inputs))
  | Compute o -> (
      let input_shapes = List.map (fun i -> i.shape) n.inputs in
      match (Catalog.of_kind o.kind input_shapes).out_shape with
      | want when Shape.equal want n.shape -> []
      | want ->
          bad "shape"
            (Printf.sprintf "%s: inputs %s give %s but node declares %s" (name n)
               (String.concat ", " (List.map Shape.to_string input_shapes))
               (Shape.to_string want) (Shape.to_string n.shape))
      | exception Invalid_argument msg -> bad "arity" msg
      | exception Shape.Shape_error msg -> bad "shape" msg)

let violations g =
  let params =
    List.filter_map
      (fun n -> match n.role with Param i -> Some (i, n.id) | Compute _ | Literal _ -> None)
      g.nodes
  in
  let k = List.length params in
  let seen = Hashtbl.create 8 in
  let duplicates =
    List.filter_map
      (fun (i, id) ->
        if Hashtbl.mem seen i then
          Some (id, "param", Printf.sprintf "duplicate parameter index %d" i)
        else begin
          Hashtbl.add seen i ();
          None
        end)
      params
  in
  let negatives =
    List.filter_map
      (fun (i, id) ->
        if i >= 0 then None
        else
          let msg = Printf.sprintf "parameter index %d outside dense range 0..%d" i (k - 1) in
          Some (id, "param", msg))
      params
  in
  List.concat_map node_violations g.nodes @ duplicates @ negatives

let validate ?stage g =
  match violations g with
  | [] -> ()
  | (id, rule, message) :: _ ->
      raise
        (Invalid_hlo
           (Printf.sprintf "%sn%d %s: %s"
              (match stage with Some s -> s ^ ": " | None -> "")
              id rule message))

(** {1 Structural keys} *)

type node_key = role * Shape.t * int list

let node_key ~input n = (n.role, n.shape, List.map input n.inputs)

let equal_role a b =
  match (a, b) with
  | Compute x, Compute y -> Catalog.equal x.kind y.kind
  | Param i, Param j -> i = j
  | Literal u, Literal v -> Dense.bit_equal u v
  | (Compute _ | Param _ | Literal _), _ -> false

let equal_node_key (ra, sa, ia) (rb, sb, ib) =
  Shape.equal sa sb && ia = ib && equal_role ra rb

let mix h v = (h * 1000003) lxor v

let hash_node_key (role, shape, inputs) =
  let h =
    match role with
    | Compute o -> Catalog.hash o.kind
    | Param i -> i + 17
    | Literal v -> Dense.hash_contents v
  in
  List.fold_left mix (mix h (Shape.hash shape)) inputs

module Node_table = Hashtbl.Make (struct
  type t = node_key

  let equal = equal_node_key
  let hash = hash_node_key
end)

type key = { hash : int; node_keys : node_key array; output_positions : int list }

let key g =
  let position = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.add position n.id i) g.nodes;
  let input n = Hashtbl.find position n.id in
  let node_keys = Array.of_list (List.map (node_key ~input) g.nodes) in
  let output_positions = List.map input g.outputs in
  let h = Array.fold_left (fun h k -> mix h (hash_node_key k)) 0 node_keys in
  let h = List.fold_left mix (mix h (List.length output_positions)) output_positions in
  { hash = h; node_keys; output_positions }

let key_hash k = k.hash

let equal_key a b =
  a.hash = b.hash
  && a.output_positions = b.output_positions
  && Array.length a.node_keys = Array.length b.node_keys
  && Array.for_all2 equal_node_key a.node_keys b.node_keys

module Table = Hashtbl.Make (struct
  type t = key

  let equal = equal_key
  let hash = key_hash
end)

let fingerprint g = key_hash (key g)

(** {1 Rendering (Figure 4)} *)

let pp_node ppf n =
  let ins = String.concat ", " (List.map (fun i -> Format.sprintf "%%%d" i.id) n.inputs) in
  let params =
    match n.role with
    | Compute o -> (
        match Catalog.params_to_string o.kind with "" -> "" | p -> " {" ^ p ^ "}")
    | Param i -> Format.sprintf " {%d}" i
    | Literal _ -> ""
  in
  Format.fprintf ppf "%%%d = %s%s(%s) : %s" n.id (name n) params ins
    (Shape.to_string n.shape)

let pp_graph ppf g =
  Format.fprintf ppf "HLO graph (%d nodes):@." (size g);
  List.iter (fun n -> Format.fprintf ppf "  %a@." pp_node n) g.nodes;
  Format.fprintf ppf "  outputs: %s"
    (String.concat ", " (List.map (fun o -> Format.sprintf "%%%d" o.id) g.outputs))

let to_string g = Format.asprintf "%a" pp_graph g

(** GraphViz rendering of the trace DAG, as in Figure 4. *)
let to_dot ?name:(graph_name = "trace") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.sprintf "digraph %s {\n  rankdir=TB;\n" graph_name);
  List.iter
    (fun n ->
      let color =
        match n.role with
        | Param _ -> "lightblue"
        | Literal _ -> "lightgray"
        | Compute o -> (
            match o.info.S4o_device.Op_info.kind with
            | S4o_device.Op_info.Contraction -> "lightsalmon"
            | _ -> "white")
      in
      Buffer.add_string buf
        (Format.sprintf
           "  n%d [label=\"%s\\n%s\", style=filled, fillcolor=%s];\n" n.id
           (name n)
           (Shape.to_string n.shape)
           color);
      List.iter
        (fun i -> Buffer.add_string buf (Format.sprintf "  n%d -> n%d;\n" i.id n.id))
        n.inputs)
    g.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
