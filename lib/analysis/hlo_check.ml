(** HLO graph checker and linter.

    The trace cut ({!S4o_lazy.Trace.cut}) and every compiler pass
    ({!S4o_xla.Opt}) produce HLO graphs whose correctness the rest of the
    stack assumes: node shapes must agree with what the op would actually
    produce from its input shapes (the catalog computed them at record
    time, but a pass that rewires inputs can silently invalidate them), and
    parameters must stay well-numbered. The checker has no shape rules of
    its own: it rebuilds every compute node's op from its kind and input
    shapes with {!S4o_ops.Catalog.of_kind} and reports a rejected input or a
    disagreeing declared shape as an error.

    Lints (advisory): dead nodes not reachable from the outputs (what
    [dead_code_elim] would drop), duplicate literal contents (what [cse]
    would merge), oversized pending regions, and — across a sequence of
    cuts via {!Hazard} — recompile hazards: many fingerprints sharing one
    op skeleton but differing in shapes, the §3.4 cache-miss pathology that
    shape bucketing fixes. *)

open S4o_tensor
open S4o_xla

type severity = Error | Warning

type finding = {
  severity : severity;
  rule : string;  (** Stable machine-readable rule id, e.g. ["shape"]. *)
  node : int option;  (** Offending node id, when node-specific. *)
  message : string;
}

exception Check_error of string

let errors fs = List.filter (fun f -> f.severity = Error) fs
let warnings fs = List.filter (fun f -> f.severity = Warning) fs

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s%s: %s"
    (match f.severity with Error -> "error" | Warning -> "warn")
    f.rule
    (match f.node with Some id -> Printf.sprintf " n%d" id | None -> "")
    f.message

(** {1 Node and graph checks} *)

let check_node (n : Hlo.node) : finding list =
  let add sev rule fmt =
    Format.kasprintf
      (fun message -> [ { severity = sev; rule; node = Some n.id; message } ])
      fmt
  in
  match n.role with
  | Hlo.Param _ | Hlo.Literal _ ->
      if n.inputs <> [] then
        add Error "role" "%s node has %d inputs" (Hlo.name n)
          (List.length n.inputs)
      else []
  | Hlo.Compute o -> (
      let input_shapes = List.map (fun (i : Hlo.node) -> i.shape) n.inputs in
      match (S4o_ops.Catalog.of_kind o.kind input_shapes).out_shape with
      | want when Shape.equal want n.shape -> []
      | want ->
          add Error "shape" "%s: inputs %s give %s but node declares %s"
            (Hlo.name n)
            (String.concat ", " (List.map Shape.to_string input_shapes))
            (Shape.to_string want) (Shape.to_string n.shape)
      | exception Invalid_argument msg -> add Error "arity" "%s" msg
      | exception Shape.Shape_error msg -> add Error "shape" "%s" msg)

let lint_graph ?pending_limit (g : Hlo.graph) : finding list =
  let out = ref [] in
  let add ?node rule fmt =
    Format.kasprintf
      (fun message -> out := { severity = Warning; rule; node; message } :: !out)
      fmt
  in
  (* Dead nodes: present in [nodes] but unreachable from the outputs —
     exactly what dead_code_elim would drop. *)
  let reachable = Hashtbl.create 64 in
  let rec visit (n : Hlo.node) =
    if not (Hashtbl.mem reachable n.id) then begin
      Hashtbl.add reachable n.id ();
      List.iter visit n.inputs
    end
  in
  List.iter visit g.outputs;
  List.iter
    (fun (n : Hlo.node) ->
      if not (Hashtbl.mem reachable n.id) then
        add ~node:n.id "dead-node" "%s [%s] unreachable from outputs: dead code"
          (Hlo.name n) (Shape.to_string n.shape))
    g.nodes;
  (* Duplicate literals: same contents recorded as distinct nodes — CSE
     would merge them; before it runs they bloat the fingerprint and the
     transfer set. *)
  let lits = Hlo.Node_table.create 16 in
  List.iter
    (fun (n : Hlo.node) ->
      match n.role with
      | Hlo.Literal _ -> (
          let key = Hlo.node_key ~input:(fun i -> i.Hlo.id) n in
          match Hlo.Node_table.find_opt lits key with
          | Some prior_id ->
              add ~node:n.id "dup-literal"
                "literal [%s] duplicates n%d: cse would merge them"
                (Shape.to_string n.shape) prior_id
          | None -> Hlo.Node_table.add lits key n.id)
      | Hlo.Compute _ | Hlo.Param _ -> ())
    g.nodes;
  (match pending_limit with
  | Some limit when Hlo.size g > limit ->
      add "pending-region"
        "%d nodes in one cut exceeds the %d-node budget: cut the trace more \
         often (step boundaries) to bound compile time and memory"
        (Hlo.size g) limit
  | Some _ | None -> ());
  List.rev !out

let check_graph ?pending_limit (g : Hlo.graph) : finding list =
  let node_findings = List.concat_map check_node g.nodes in
  (* Parameter numbering: distinct, and contiguous from 0. *)
  let params =
    List.filter_map
      (fun (n : Hlo.node) ->
        match n.role with Hlo.Param i -> Some (i, n.id) | _ -> None)
      g.nodes
  in
  let param_findings =
    let seen = Hashtbl.create 8 in
    let dups =
      List.filter_map
        (fun (i, id) ->
          if Hashtbl.mem seen i then
            Some
              {
                severity = Error;
                rule = "param";
                node = Some id;
                message = Printf.sprintf "duplicate parameter index %d" i;
              }
          else begin
            Hashtbl.add seen i ();
            None
          end)
        params
    in
    (* Optimizers may legitimately drop an unused parameter, leaving the
       surviving indices sparse — the executor binds by index, so sparse
       numbering is only worth a lint. Negative indices are always errors. *)
    let k = List.length params in
    let gaps =
      List.filter_map
        (fun (i, id) ->
          if i < 0 || i >= k then
            Some
              {
                severity = (if i < 0 then Error else Warning);
                rule = "param";
                node = Some id;
                message =
                  Printf.sprintf
                    "parameter index %d outside dense range 0..%d" i (k - 1);
              }
          else None)
        params
    in
    dups @ gaps
  in
  node_findings @ param_findings @ lint_graph ?pending_limit g

let run ~stage (g : Hlo.graph) =
  match errors (check_graph g) with
  | [] -> ()
  | errs ->
      raise
        (Check_error
           (Format.asprintf "@[<v>HLO check failed after %s:@,%a@]" stage
              (Format.pp_print_list pp_finding)
              errs))

(** {1 Recompile-hazard detection}

    The program cache keys on the full structural fingerprint, so a model
    re-traced with a different batch size is a compile-cache miss even
    though the op skeleton is identical. The hazard detector buckets
    fingerprints by a shape-free skeleton hash; one skeleton accumulating
    many distinct fingerprints is the §3.4 pathology (fix: pad/bucket the
    varying dimension). *)

module Hazard = struct
  type t = {
    threshold : int;
    skeletons : (int, (int, unit) Hashtbl.t) Hashtbl.t;
    mutable reported : int list;
  }

  let create ?(threshold = 4) () =
    { threshold; skeletons = Hashtbl.create 16; reported = [] }

  let reset t =
    Hashtbl.reset t.skeletons;
    t.reported <- []

  (* Shape-free structural hash: op names, roles, and topology. Op
     parameters are excluded too — reshape/broadcast carry shapes. *)
  let skeleton (g : Hlo.graph) =
    let index = Hashtbl.create 64 in
    List.iteri (fun i (n : Hlo.node) -> Hashtbl.add index n.id i) g.nodes;
    let node_key (n : Hlo.node) =
      let role =
        match n.role with
        | Hlo.Compute _ -> "c"
        | Hlo.Param i -> Printf.sprintf "p%d" i
        | Hlo.Literal _ -> "l"
      in
      Printf.sprintf "%s/%s/%s" (Hlo.name n) role
        (String.concat ","
           (List.map
              (fun (i : Hlo.node) -> string_of_int (Hashtbl.find index i.id))
              n.inputs))
    in
    Hashtbl.hash
      ( List.map node_key g.nodes,
        List.map (fun (o : Hlo.node) -> Hashtbl.find index o.id) g.outputs )

  let observe t (g : Hlo.graph) : finding list =
    let sk = skeleton g in
    let fps =
      match Hashtbl.find_opt t.skeletons sk with
      | Some fps -> fps
      | None ->
          let fps = Hashtbl.create 4 in
          Hashtbl.add t.skeletons sk fps;
          fps
    in
    Hashtbl.replace fps (Hlo.fingerprint g) ();
    let n = Hashtbl.length fps in
    if n >= t.threshold && not (List.mem sk t.reported) then begin
      t.reported <- sk :: t.reported;
      [
        {
          severity = Warning;
          rule = "recompile-hazard";
          node = None;
          message =
            Printf.sprintf
              "%d distinct fingerprints share one op skeleton: each is a \
               compile-cache miss; bucket the varying dimension (pad \
               batch/sequence sizes) to reuse programs"
              n;
        };
      ]
    end
    else []

  (** Distinct fingerprints seen per skeleton, largest first. *)
  let skeleton_counts t =
    Hashtbl.fold (fun _ fps acc -> Hashtbl.length fps :: acc) t.skeletons []
    |> List.sort (fun a b -> compare b a)
end

(** {1 Reporting} *)

let severity_str = function Error -> "error" | Warning -> "warning"

module J = S4o_obs.Json

let finding_to_json (f : finding) : J.t =
  J.Obj
    ([
       ("severity", J.Str (severity_str f.severity));
       ("rule", J.Str f.rule);
       ("message", J.Str f.message);
     ]
    @ match f.node with
      | Some id -> [ ("node", J.Num (float_of_int id)) ]
      | None -> [])

let report_to_json ~graph_name (g : Hlo.graph) (findings : finding list) : J.t
    =
  J.Obj
    [
      ("graph", J.Str graph_name);
      ("nodes", J.Num (float_of_int (Hlo.size g)));
      ("outputs", J.Num (float_of_int (List.length g.outputs)));
      ("params", J.Num (float_of_int (List.length (Hlo.params g))));
      ("fingerprint", J.Str (Printf.sprintf "%x" (Hlo.fingerprint g)));
      ("errors", J.Num (float_of_int (List.length (errors findings))));
      ("warnings", J.Num (float_of_int (List.length (warnings findings))));
      ("findings", J.Arr (List.map finding_to_json findings));
    ]
