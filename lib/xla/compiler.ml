open S4o_tensor

type compile_stats = {
  input_nodes : int;
  optimized_nodes : int;
  clusters : int;
  compile_seconds : float;
}

(* One entry of the execution plan. Slot [k] holds the value of step [k];
   [operands] are slots of earlier steps, and [release] lists the slots whose
   last consumer is this step (never a graph output). *)
type step = {
  node : Hlo.node;
  operands : int array;
  release : int array;
  dispatch : S4o_device.Op_info.t option;  (* on the last member of a cluster *)
  output : bool;
}

type executable = {
  n_params : int;
  steps : step array;  (* parameters and literals, then clusters in order *)
  n_leaves : int;  (* the parameter and literal steps *)
  outputs : int array;  (* slot of each graph output *)
  stats : compile_stats;
}

(* Simulated JIT cost: a fixed front-end charge plus a per-node charge. The
   constants are calibrated so compiling a ResNet-scale trace costs a large
   multiple of one training step — the regime that makes the trace cache
   essential (§3.4). *)
let compile_base_seconds = 0.050
let compile_per_node_seconds = 0.0015

(* The flat execution plan: slots in schedule order, operands resolved to
   slots, and each slot released by its last consumer. A slot nobody
   consumes is released by its own step unless it is an output. *)
let schedule (g : Hlo.graph) clusters =
  let leaves =
    List.filter
      (fun (n : Hlo.node) -> match n.role with Hlo.Compute _ -> false | _ -> true)
      g.nodes
  in
  let members =
    List.concat_map
      (fun (c : Opt.cluster) ->
        let last = List.length c.members - 1 in
        List.mapi (fun i m -> (m, if i = last then Some c.info else None)) c.members)
      clusters
  in
  let order = Array.of_list (List.map (fun n -> (n, None)) leaves @ members) in
  let n = Array.length order in
  let slot_of = Hashtbl.create n in
  Array.iteri (fun k ((node : Hlo.node), _) -> Hashtbl.replace slot_of node.id k) order;
  let slot (node : Hlo.node) = Hashtbl.find slot_of node.id in
  let operands =
    Array.map (fun ((node : Hlo.node), _) -> Array.of_list (List.map slot node.inputs)) order
  in
  let outputs = Array.of_list (List.map slot g.outputs) in
  let is_output = Array.make n false in
  Array.iter (fun s -> is_output.(s) <- true) outputs;
  let last_use = Array.init n Fun.id in
  Array.iteri (fun k ops -> Array.iter (fun j -> last_use.(j) <- k) ops) operands;
  let release = Array.make n [] in
  for s = n - 1 downto 0 do
    if not is_output.(s) then release.(last_use.(s)) <- s :: release.(last_use.(s))
  done;
  let steps =
    Array.mapi
      (fun k (node, dispatch) ->
        {
          node;
          operands = operands.(k);
          release = Array.of_list release.(k);
          dispatch;
          output = is_output.(k);
        })
      order
  in
  (steps, List.length leaves, outputs)

let compile ?engine g =
  Hlo.validate ~stage:"compile" g;
  let input_nodes = Hlo.size g in
  let optimized, _ = Opt.optimize g in
  let clusters = Opt.fuse optimized in
  let steps, n_leaves, outputs = schedule optimized clusters in
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
    n_params;
    steps;
    n_leaves;
    outputs;
    stats =
      {
        input_nodes;
        optimized_nodes = Hlo.size optimized;
        clusters = List.length clusters;
        compile_seconds;
      };
  }

let stats exe = exe.stats
let plan exe = exe.steps

(* The fused kernels, one per cluster, in dispatch order. *)
let iter_kernels f exe = Array.iter (fun st -> Option.iter f st.dispatch) exe.steps

let estimated_run_time spec exe =
  let t = ref 0.0 in
  iter_kernels (fun info -> t := !t +. S4o_device.Device_spec.kernel_time spec info) exe;
  !t

(* Fills the slots not yet computed, and those already released. *)
let placeholder = Dense.scalar 0.0

let run exe engine feeds =
  if Array.length feeds < exe.n_params then
    invalid_arg
      (Format.sprintf "Compiler.run: %d feeds for %d parameters"
         (Array.length feeds) exe.n_params);
  let n = Array.length exe.steps in
  let values = Array.make n placeholder in
  (* [owner.(s)] is the slot that first held [s]'s buffer, made by a kernel
     in this run, or -1 for a buffer the run must not recycle (a feed, a
     literal, or an alias of one). [refs.(o)] counts the live slots sharing
     [o]'s buffer; outputs are never released, so an output's buffer never
     goes back to the pool. *)
  let owner = Array.make n (-1) in
  let refs = Array.make n 0 in
  Dense.Arena.scoped (fun arena ->
      for k = 0 to n - 1 do
        let st = exe.steps.(k) in
        (match st.node.role with
        | Hlo.Param i -> values.(k) <- feeds.(i)
        | Hlo.Literal v -> values.(k) <- v
        | Hlo.Compute o ->
            let ops = st.operands in
            let args = Array.map (fun j -> values.(j)) ops in
            let v =
              if st.output then Dense.Arena.escaping arena (fun () -> o.kernel args)
              else o.kernel args
            in
            values.(k) <- v;
            (* A result aliases an operand when it is that operand's storage
               ([Dense.unbroadcast] to the operand's own shape). *)
            let data = Dense.unsafe_data v in
            let rec alias i =
              if i = Array.length ops then k
              else if Dense.unsafe_data values.(ops.(i)) == data then owner.(ops.(i))
              else alias (i + 1)
            in
            let o = alias 0 in
            owner.(k) <- o;
            if o >= 0 then refs.(o) <- refs.(o) + 1);
        Array.iter
          (fun s ->
            let o = owner.(s) in
            if o >= 0 then begin
              refs.(o) <- refs.(o) - 1;
              if refs.(o) = 0 then Dense.Arena.release arena values.(s)
            end;
            values.(s) <- placeholder)
          st.release;
        Option.iter (fun info -> ignore (S4o_device.Engine.dispatch engine info)) st.dispatch
      done;
      let m = S4o_device.Engine.metrics engine in
      S4o_obs.Metrics.incr ~by:(Dense.Arena.reused arena)
        (S4o_obs.Metrics.counter m "xla.buffers_reused");
      S4o_obs.Metrics.incr ~by:(Dense.Arena.fresh arena)
        (S4o_obs.Metrics.counter m "xla.buffers_fresh");
      Array.map (fun s -> values.(s)) exe.outputs)

let simulate exe engine =
  iter_kernels (fun info -> ignore (S4o_device.Engine.dispatch engine info)) exe

(* Replays the plan's liveness: leaves are resident throughout, each compute
   step adds its output, and each released compute slot gives its bytes back. *)
let peak_memory ?(donated = []) exe =
  let bytes k = S4o_device.Op_info.bytes_of_shape exe.steps.(k).node.shape in
  let resident = ref 0 in
  for k = 0 to exe.n_leaves - 1 do
    resident := !resident + bytes k
  done;
  (* Donated parameter buffers may be reused for a shape-matching output, so
     that output costs nothing extra (input–output aliasing). *)
  let donated_shapes =
    Array.to_list exe.steps
    |> List.filter_map (fun st ->
           match st.node.Hlo.role with
           | Hlo.Param i when List.mem i donated -> Some st.node.shape
           | _ -> None)
  in
  let is_output = Array.make (Array.length exe.steps) false in
  Array.iter (fun s -> is_output.(s) <- true) exe.outputs;
  let rec take_donation shape = function
    | [] -> None
    | s :: rest when Shape.equal s shape -> Some rest
    | s :: rest -> Option.map (List.cons s) (take_donation shape rest)
  in
  let live = ref !resident and peak = ref !resident in
  let aliases_remaining = ref donated_shapes in
  for k = exe.n_leaves to Array.length exe.steps - 1 do
    let st = exe.steps.(k) in
    let donation = if is_output.(k) then take_donation st.node.shape !aliases_remaining else None in
    (match donation with
    | Some rest -> aliases_remaining := rest
    | None ->
        live := !live + bytes k;
        if !live > !peak then peak := !live);
    Array.iter (fun s -> if s >= exe.n_leaves then live := !live - bytes s) st.release
  done;
  !peak
