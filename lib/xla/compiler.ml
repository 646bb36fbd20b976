open S4o_tensor

type compile_stats = {
  input_nodes : int;
  optimized_nodes : int;
  clusters : int;
  compile_seconds : float;
}

type executable = {
  graph : Hlo.graph;  (* optimized *)
  clusters : Opt.cluster list;  (* topological order *)
  n_params : int;
  stats : compile_stats;
}

(* Simulated JIT cost: a fixed front-end charge plus a per-node charge. The
   constants are calibrated so compiling a ResNet-scale trace costs a large
   multiple of one training step — the regime that makes the trace cache
   essential (§3.4). *)
let compile_base_seconds = 0.050
let compile_per_node_seconds = 0.0015

let compile ?engine g =
  let input_nodes = Hlo.size g in
  let optimized, _ = Opt.optimize g in
  let clusters = Opt.fuse optimized in
  let compile_seconds =
    compile_base_seconds +. (compile_per_node_seconds *. float_of_int input_nodes)
  in
  Option.iter
    (fun e ->
      S4o_device.Engine.with_host_span e ~cat:"compile"
        ~args:
          [
            ("input_nodes", string_of_int input_nodes);
            ("clusters", string_of_int (List.length clusters));
          ]
        "xla-compile"
        (fun () -> S4o_device.Engine.spend_host e compile_seconds))
    engine;
  let n_params = List.length (Hlo.params optimized) in
  {
    graph = optimized;
    clusters;
    n_params;
    stats =
      {
        input_nodes;
        optimized_nodes = Hlo.size optimized;
        clusters = List.length clusters;
        compile_seconds;
      };
  }

let stats exe = exe.stats

let estimated_run_time spec exe =
  List.fold_left
    (fun acc (c : Opt.cluster) ->
      acc +. S4o_device.Device_spec.kernel_time spec c.info)
    0.0 exe.clusters

let run exe engine feeds =
  if Array.length feeds < exe.n_params then
    invalid_arg
      (Format.sprintf "Compiler.run: %d feeds for %d parameters"
         (Array.length feeds) exe.n_params);
  let values : (int, Dense.t) Hashtbl.t = Hashtbl.create 64 in
  let eval_node (n : Hlo.node) =
    let v =
      match n.role with
      | Hlo.Param i -> feeds.(i)
      | Hlo.Literal v -> v
      | Hlo.Compute _ ->
          n.kernel
            (Array.of_list
               (List.map (fun (i : Hlo.node) -> Hashtbl.find values i.id) n.inputs))
    in
    Hashtbl.replace values n.id v
  in
  (* Parameters and literals first (no device cost beyond what tracing paid),
     then each fused cluster as one dispatched kernel. *)
  List.iter
    (fun (n : Hlo.node) ->
      match n.role with
      | Hlo.Param _ | Hlo.Literal _ -> eval_node n
      | Hlo.Compute _ -> ())
    exe.graph.Hlo.nodes;
  List.iter
    (fun (c : Opt.cluster) ->
      List.iter eval_node c.members;
      ignore (S4o_device.Engine.dispatch engine c.info))
    exe.clusters;
  Array.of_list
    (List.map (fun (o : Hlo.node) -> Hashtbl.find values o.id) exe.graph.Hlo.outputs)

let simulate exe engine =
  List.iter
    (fun (c : Opt.cluster) -> ignore (S4o_device.Engine.dispatch engine c.info))
    exe.clusters

let peak_memory ?(donated = []) exe =
  let bytes (n : Hlo.node) = S4o_device.Op_info.bytes_of_shape n.shape in
  (* Remaining-consumer counts for intermediates. *)
  let remaining : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Hlo.node) ->
      List.iter
        (fun (i : Hlo.node) ->
          Hashtbl.replace remaining i.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt remaining i.id)))
        n.inputs)
    exe.graph.Hlo.nodes;
  let output_ids = List.map (fun (o : Hlo.node) -> o.id) exe.graph.Hlo.outputs in
  (* Parameters (and literals) are resident for the whole execution. *)
  let resident =
    List.fold_left
      (fun acc (n : Hlo.node) ->
        match n.role with
        | Hlo.Param _ | Hlo.Literal _ -> acc + bytes n
        | Hlo.Compute _ -> acc)
      0 exe.graph.Hlo.nodes
  in
  (* Donated parameter buffers may be reused for a shape-matching output, so
     that output costs nothing extra (input–output aliasing). *)
  let donated_shapes =
    List.filter_map
      (fun (n : Hlo.node) ->
        match n.role with
        | Hlo.Param i when List.mem i donated -> Some n.shape
        | _ -> None)
      exe.graph.Hlo.nodes
  in
  let live = ref resident in
  let peak = ref resident in
  let aliases_remaining = ref donated_shapes in
  List.iter
    (fun (n : Hlo.node) ->
      match n.role with
      | Hlo.Param _ | Hlo.Literal _ -> ()
      | Hlo.Compute _ ->
          let is_output = List.mem n.id output_ids in
          let aliased =
            is_output
            && begin
                 match
                   List.partition (fun s -> Shape.equal s n.shape) !aliases_remaining
                 with
                 | matching :: rest_matching, rest ->
                     aliases_remaining := rest_matching @ rest;
                     ignore matching;
                     true
                 | [], _ -> false
               end
          in
          if not aliased then begin
            live := !live + bytes n;
            if !live > !peak then peak := !live
          end;
          (* free operands whose last consumer this was *)
          List.iter
            (fun (i : Hlo.node) ->
              match i.role with
              | Hlo.Compute _ ->
                  let r = Hashtbl.find remaining i.id - 1 in
                  Hashtbl.replace remaining i.id r;
                  if r = 0 && not (List.mem i.id output_ids) then
                    live := !live - bytes i
              | Hlo.Param _ | Hlo.Literal _ -> ())
            n.inputs)
    exe.graph.Hlo.nodes;
  !peak
