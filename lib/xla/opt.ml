(* Rewrite a graph bottom-up: [rewrite n inputs'] sees the node with its
   already-rewritten operands and returns the replacement. A node whose
   operands were replaced is rebuilt with the same id, so operands are
   compared physically: comparing ids would keep the stale operand of any
   node two levels above a replacement. *)
let map_graph (g : Hlo.graph) (rewrite : Hlo.node -> Hlo.node list -> Hlo.node) =
  let subst : (int, Hlo.node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Hlo.node) ->
      let inputs' = List.map (fun (i : Hlo.node) -> Hashtbl.find subst i.id) n.inputs in
      let n' =
        if List.for_all2 ( == ) n.inputs inputs' then rewrite n n.inputs
        else rewrite { n with inputs = inputs' } inputs'
      in
      Hashtbl.add subst n.id n')
    g.nodes;
  Hlo.graph_of_outputs
    (List.map (fun (o : Hlo.node) -> Hashtbl.find subst o.id) g.outputs)

let literal_value (n : Hlo.node) =
  match n.role with Literal v -> Some v | Compute _ | Param _ -> None

(* CSE merges nodes with equal keys, replaces an [unbroadcast] to its
   operand's own shape (whose kernel returns the operand) by the operand,
   and DCE only drops nodes, so none of them can turn a valid graph into an
   invalid one (a qcheck property holds them to it). Constant folding can:
   a kernel's literal result stands in for a declared shape. So only it
   validates what it makes. *)
let cse g =
  let seen = Hlo.Node_table.create 64 in
  map_graph g (fun n _ ->
      (* [map_graph] has already rewired [n] to its merged operands. *)
      match (n.role, n.inputs) with
      | Param _, _ -> n
      | Compute { kind = Unbroadcast _; _ }, [ a ]
        when S4o_tensor.Shape.equal a.shape n.shape ->
          a
      | (Compute _ | Literal _), _ -> (
          let key = Hlo.node_key ~input:(fun i -> i.Hlo.id) n in
          match Hlo.Node_table.find_opt seen key with
          | Some prior -> prior
          | None ->
              Hlo.Node_table.add seen key n;
              n))

(* The folded graph and the number of nodes folded. *)
let fold_constants g =
  let count = ref 0 in
  let folded =
    map_graph g (fun n inputs ->
        match n.role with
        | Param _ | Literal _ -> n
        | Compute o ->
            let values = List.map literal_value inputs in
            if inputs <> [] && List.for_all Option.is_some values then begin
              incr count;
              Hlo.literal (o.kernel (Array.of_list (List.map Option.get values)))
            end
            else n)
  in
  Hlo.validate ~stage:"opt:constant_fold" folded;
  (folded, !count)

let constant_fold g = fst (fold_constants g)

let dead_code_elim g = Hlo.graph_of_outputs g.Hlo.outputs

type cluster = { members : Hlo.node list; info : S4o_device.Op_info.t }

let compute_info (n : Hlo.node) =
  match n.role with Compute o -> Some o.info | Param _ | Literal _ -> None

let fusible (n : Hlo.node) =
  match compute_info n with
  | None -> false
  | Some { kind = Elementwise | Reduction | Data_movement; _ } -> true
  | Some { kind = Contraction | Fused _; _ } -> false

let is_compute (n : Hlo.node) =
  match n.role with Compute _ -> true | Param _ | Literal _ -> false

let fuse (g : Hlo.graph) =
  (* cluster id per node id; clusters accumulate members in reverse topo *)
  let cluster_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let members : (int, Hlo.node list) Hashtbl.t = Hashtbl.create 64 in
  let fresh = ref 0 in
  let new_cluster n =
    let c = !fresh in
    incr fresh;
    Hashtbl.add cluster_of n.Hlo.id c;
    Hashtbl.add members c [ n ]
  in
  let join n c =
    Hashtbl.add cluster_of n.Hlo.id c;
    Hashtbl.replace members c (n :: Hashtbl.find members c)
  in
  List.iter
    (fun (n : Hlo.node) ->
      if is_compute n then
        if fusible n then begin
          (* Join the newest (largest-id) operand cluster. Cluster ids are
             assigned in topological order and a node always lands in a
             cluster with id >= all of its operands' clusters, so every
             cross-cluster edge points from a lower id to a higher id: the
             cluster DAG is acyclic by construction and creation order is a
             valid schedule. This fuses conv → bn (its whole diamond) → relu
             → residual-add chains into single kernels, as XLA's loop fusion
             does. *)
          let operand_clusters =
            List.filter_map
              (fun (i : Hlo.node) ->
                if is_compute i then Some (Hashtbl.find cluster_of i.id) else None)
              n.inputs
          in
          match List.fold_left (fun acc c -> max acc c) (-1) operand_clusters with
          | -1 -> new_cluster n
          | c -> join n c
        end
        else new_cluster n)
    g.nodes;
  (* Build per-cluster cost info, charging only external memory traffic. *)
  let in_same_cluster a b =
    match (Hashtbl.find_opt cluster_of a, Hashtbl.find_opt cluster_of b) with
    | Some ca, Some cb -> ca = cb
    | _, _ -> false
  in
  let consumers : (int, Hlo.node list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Hlo.node) ->
      List.iter
        (fun (i : Hlo.node) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt consumers i.id) in
          Hashtbl.replace consumers i.id (n :: prev))
        n.inputs)
    g.nodes;
  let output_ids = List.map (fun (o : Hlo.node) -> o.id) g.outputs in
  let cluster_list =
    List.init !fresh (fun c -> List.rev (Hashtbl.find members c))
  in
  List.map
    (fun ms ->
      let member_ids = List.map (fun (m : Hlo.node) -> m.Hlo.id) ms in
      let external_in =
        (* distinct operands produced outside the cluster *)
        let seen = Hashtbl.create 8 in
        List.fold_left
          (fun acc (m : Hlo.node) ->
            List.fold_left
              (fun acc (i : Hlo.node) ->
                if (not (List.mem i.id member_ids)) && not (Hashtbl.mem seen i.id)
                then begin
                  Hashtbl.add seen i.id ();
                  acc + S4o_device.Op_info.bytes_of_shape i.shape
                end
                else acc)
              acc m.inputs)
          0 ms
      in
      let external_out =
        List.fold_left
          (fun acc (m : Hlo.node) ->
            let escapes =
              List.mem m.id output_ids
              || List.exists
                   (fun (c : Hlo.node) -> not (in_same_cluster m.id c.id))
                   (Option.value ~default:[] (Hashtbl.find_opt consumers m.id))
            in
            if escapes then acc + S4o_device.Op_info.bytes_of_shape m.shape
            else acc)
          0 ms
      in
      let info =
        match List.filter_map compute_info ms with
        | [ single ] -> single
        | members ->
            S4o_device.Op_info.fused ~members ~external_in_bytes:external_in
              ~external_out_bytes:external_out
      in
      { members = ms; info })
    cluster_list

let optimize g =
  let stats = ref [] in
  let record name before after =
    stats := (name, before - after) :: !stats
  in
  (* One CSE traversal leaves no duplicate, since [map_graph] rewires each
     node before CSE keys it, and each pass rebuilds its graph from the
     outputs, which drops the dead. So another round pays only when
     folding made new literals, which may duplicate others. *)
  let rec go g budget =
    let n0 = Hlo.size g in
    let g = cse g in
    let n1 = Hlo.size g in
    record "cse" n0 n1;
    let g, folded = fold_constants g in
    record "fold+dce" n1 (Hlo.size g);
    if folded > 0 && budget > 0 then go g (budget - 1) else g
  in
  let g' = go g 4 in
  (g', List.rev !stats)
