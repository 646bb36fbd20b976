open S4o_tensor

type compile_stats = {
  input_nodes : int;
  optimized_nodes : int;
  clusters : int;
  compile_seconds : float;
}

(* One entry of the execution plan. Slot [k] holds the value of step [k];
   [operands] are slots of earlier steps, and [release] lists the slots
   whose value dies at this step (never a graph output). [offset] is where
   the step's result lives in the slab, or -1. *)
type step = {
  node : Hlo.node;
  operands : int array;
  release : int array;
  dispatch : S4o_device.Op_info.t option;  (* on the last member of a cluster *)
  output : bool;
  offset : int;
}

type executable = {
  n_params : int;
  steps : step array;  (* parameters and literals, then clusters in order *)
  outputs : int array;  (* slot of each graph output *)
  slab : int;  (* elements of slab every run needs *)
  stats : compile_stats;
}

(* Simulated JIT cost: a fixed front-end charge plus a per-node charge. The
   constants are calibrated so compiling a ResNet-scale trace costs a large
   multiple of one training step — the regime that makes the trace cache
   essential (§3.4). *)
let compile_base_seconds = 0.050
let compile_per_node_seconds = 0.0015

(* An elementwise kernel reads element [i] of each operand before it
   writes element [i] of its result, and no element after, so its result
   may overwrite an operand of its own shape that dies at it. *)
let elementwise (node : Hlo.node) =
  match node.role with
  | Hlo.Compute { kind; _ } -> (
      match kind with
      | Add | Sub | Mul | Div | Relu_grad | Neg | Exp | Log | Sqrt | Relu | Sigmoid | Tanh
      | Scale _ | Add_scalar _ ->
          true
      | _ -> false)
  | _ -> false

(* Greedy by size: the largest value first, each at the lowest offset where
   it overlaps no region already placed for a value live at the same time.
   [size.(s)] is slot [s]'s element count and [last.(s)] the last step that
   reads it; a value is live from its own step through [last], both
   included, since a kernel reads its operands while it writes its result.
   Gives each slot's offset (-1 where [wants] is false) and the slab's
   length. *)
let assign_regions ~size ~last wants =
  let n = Array.length size in
  let offset = Array.make n (-1) in
  let slots =
    List.filter wants (List.init n Fun.id)
    |> List.stable_sort (fun a b -> compare size.(b) size.(a))
  in
  (* the slots placed so far, by increasing offset *)
  let placed = Array.make n 0 and m = ref 0 and slab = ref 0 in
  List.iter
    (fun s ->
      (* past [at + size.(s)] no placed region can be in the way *)
      let at = ref 0 and i = ref 0 in
      while !i < !m && !at + size.(s) > offset.(placed.(!i)) do
        let p = placed.(!i) in
        if p <= last.(s) && s <= last.(p) then at := max !at (offset.(p) + size.(p));
        incr i
      done;
      offset.(s) <- !at;
      slab := max !slab (!at + size.(s));
      let j = ref !m in
      while !j > 0 && offset.(placed.(!j - 1)) > !at do
        placed.(!j) <- placed.(!j - 1);
        decr j
      done;
      placed.(!j) <- s;
      incr m)
    slots;
  (offset, !slab)

(* The flat execution plan: slots in schedule order, operands resolved to
   slots, and every value given its place. Slots that share a buffer (an
   elementwise result and the operand it writes over) are released
   together, after the last step that reads any of them, unless they are
   outputs. Each buffer of compute steps that are not outputs gets a
   region of the slab; outputs are allocated fresh. [Opt] has replaced
   every kernel that returns its operand ([unbroadcast] to its own shape),
   so each compute step makes a new value. *)
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
  (* [reader.(s)]: the last step that reads slot [s], or [s] *)
  let reader = Array.init n Fun.id in
  Array.iteri (fun k ops -> Array.iter (fun j -> reader.(j) <- k) ops) operands;
  let node k = fst order.(k) in
  let compute k = match (node k).role with Hlo.Compute _ -> true | _ -> false in
  (* Slots that share a buffer form a class named by its first slot,
     [owner.(s)]; [last.(o)] is the last step that reads any slot of class
     [o]. An elementwise result that is not an output joins the class of
     an operand of its own shape that has a region and dies at it. *)
  let owner = Array.init n Fun.id and last = Array.copy reader in
  let planned o = compute o && not is_output.(o) in
  for k = 0 to n - 1 do
    let joins j =
      elementwise (node k)
      && (not is_output.(k))
      && Shape.equal (node j).shape (node k).shape
      && planned owner.(j)
      && last.(owner.(j)) = k
    in
    match List.find_opt joins (Array.to_list operands.(k)) with
    | Some j ->
        let o = owner.(j) in
        owner.(k) <- o;
        last.(o) <- max last.(o) reader.(k)
    | None -> ()
  done;
  let release = Array.make n [] in
  for s = n - 1 downto 0 do
    let at = last.(owner.(s)) in
    if not is_output.(s) then release.(at) <- s :: release.(at)
  done;
  let size = Array.map (fun ((node : Hlo.node), _) -> Shape.numel node.shape) order in
  let region, slab = assign_regions ~size ~last (fun k -> owner.(k) = k && planned k) in
  let steps =
    Array.mapi
      (fun k (node, dispatch) ->
        {
          node;
          operands = operands.(k);
          release = Array.of_list release.(k);
          dispatch;
          output = is_output.(k);
          offset = region.(owner.(k));
        })
      order
  in
  (steps, outputs, slab)

let compile ?engine g =
  Hlo.validate ~stage:"compile" g;
  let input_nodes = Hlo.size g in
  let optimized, _ = Opt.optimize g in
  let clusters = Opt.fuse optimized in
  let steps, outputs, slab = schedule optimized clusters in
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
    outputs;
    slab;
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
let slab exe = exe.slab

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
  let fresh0 = Dense.fresh_allocations () and served = ref 0 in
  let poison = Sanitizer.armed () in
  Dense.with_slab exe.slab (fun slab ->
      for k = 0 to n - 1 do
        let st = exe.steps.(k) in
        (match st.node.role with
        | Hlo.Param i -> values.(k) <- feeds.(i)
        | Hlo.Literal v -> values.(k) <- v
        | Hlo.Compute o ->
            let args = Array.map (fun j -> values.(j)) st.operands in
            values.(k) <-
              (if st.offset < 0 then o.kernel args
               else begin
                 incr served;
                 let dest = Bigarray.Array1.sub slab st.offset (Shape.numel st.node.shape) in
                 Dense.into dest (fun () -> o.kernel args)
               end));
        Array.iter
          (fun s ->
            (* a value read after this reads NaN *)
            if poison && exe.steps.(s).offset >= 0 then
              Bigarray.Array1.fill (Dense.unsafe_data values.(s)) Float.nan;
            values.(s) <- placeholder)
          st.release;
        Option.iter (fun info -> ignore (S4o_device.Engine.dispatch engine info)) st.dispatch
      done);
  let m = S4o_device.Engine.metrics engine in
  S4o_obs.Metrics.incr ~by:!served (S4o_obs.Metrics.counter m "xla.buffers_reused");
  S4o_obs.Metrics.incr
    ~by:(Dense.fresh_allocations () - fresh0)
    (S4o_obs.Metrics.counter m "xla.buffers_fresh");
  Array.map (fun s -> values.(s)) exe.outputs

let simulate exe engine =
  iter_kernels (fun info -> ignore (S4o_device.Engine.dispatch engine info)) exe
