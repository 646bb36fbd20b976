(** One serving replica: a private simulated device ({!S4o_device.Engine}),
    its own runtime state, and a runner that executes one padded batch.

    Two execution paths, selectable per deployment:

    - [Lazy_tensor]: a {e live} lazy stack — the functorized model is built
      on a per-replica {!S4o_lazy.Lazy_backend}, every batch re-traces the
      forward pass through {!S4o_nn.Train.Make.predict} with a placeholder
      input, and a barrier cuts the trace. Cache hits/misses, re-tracing
      overhead, and JIT compiles are all real runtime behaviour, so shape
      bucketing visibly keeps {!S4o_lazy.Lazy_runtime.cache_size} bounded.

    - [Op_by_op s]: an eager-family path. The eager runtime computes real
      values and has no placeholder inputs, so serving-scale traffic instead
      {e replays} the captured forward HLO graph kernel-by-kernel: one
      [per_op_host] charge plus one unfused dispatch per compute node, with
      kernel times scaled by the strategy's [kernel_efficiency] — the same
      cost model {!S4o_frameworks.Strategy.step_time} uses, but executed on
      the engine so pipelining and stalls are simulated, not closed-form. *)

module Engine = S4o_device.Engine
module Recorder = S4o_obs.Recorder
module Strategy = S4o_frameworks.Strategy

type strategy = Lazy_tensor | Op_by_op of Strategy.t

let lazy_tensor = Lazy_tensor
let eager = Op_by_op Strategy.s4o_eager
let pytorch_like = Op_by_op Strategy.pytorch_like

let strategy_name = function
  | Lazy_tensor -> "lazy"
  | Op_by_op s -> s.Strategy.name

let strategy_of_string = function
  | "lazy" -> Some Lazy_tensor
  | "eager" -> Some eager
  | "pytorch" -> Some pytorch_like
  | _ -> None

type t = {
  id : int;
  engine : Engine.t;
  mutable free_at : float;  (** Simulated time this replica next idles. *)
  mutable batches : int;
  mutable slots : int;  (** Padded slots executed (>= real occupancy). *)
  run : batch:int -> unit;
  cache_hits : unit -> int;
  cache_misses : unit -> int;
  compiled_programs : unit -> int;
}

let make_lazy_runner engine kind =
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let rng = S4o_tensor.Prng.create Model.weight_seed in
  let model =
    match kind with
    | Model.Lenet -> M.lenet rng
    | Model.Resnet_tiny ->
        M.resnet rng ~in_channels:3 (M.resnet_tiny_config ~classes:10)
    | Model.Mlp -> M.mlp rng ~inputs:16 ~hidden:64 ~outputs:10
  in
  let run ~batch =
    let input = Bk.placeholder (Model.input_shape kind ~batch) in
    let logits = T.predict model input in
    Bk.barrier [ logits ];
    Engine.sync engine
  in
  let stat field = field (S4o_lazy.Lazy_runtime.stats rt) in
  ( run,
    (fun () -> stat (fun (s : S4o_obs.Stats.t) -> s.cache_hits)),
    (fun () -> stat (fun (s : S4o_obs.Stats.t) -> s.cache_misses)),
    fun () -> S4o_lazy.Lazy_runtime.cache_size rt )

let make_replay_runner engine (s : Strategy.t) kind =
  let graphs : (int, S4o_device.Op_info.t list) Hashtbl.t = Hashtbl.create 8 in
  let eff = s.Strategy.kernel_efficiency in
  (* Scaling the roofline inputs by [kernel_efficiency] reproduces
     Strategy.step_time's device-time scaling while leaving the fixed
     kernel-launch cost alone. *)
  let scale (op : S4o_device.Op_info.t) =
    if eff = 1.0 then op
    else
      {
        op with
        S4o_device.Op_info.flops =
          int_of_float (Float.round (eff *. float_of_int op.flops));
        bytes_in = int_of_float (Float.round (eff *. float_of_int op.bytes_in));
        bytes_out =
          int_of_float (Float.round (eff *. float_of_int op.bytes_out));
      }
  in
  let ops_for batch =
    match Hashtbl.find_opt graphs batch with
    | Some ops -> ops
    | None ->
        let g = Model.capture_forward kind ~batch in
        let ops =
          List.filter_map
            (fun (n : S4o_xla.Hlo.node) ->
              match n.S4o_xla.Hlo.role with
              | S4o_xla.Hlo.Compute o -> Some (scale o.info)
              | S4o_xla.Hlo.Param _ | S4o_xla.Hlo.Literal _ -> None)
            g.S4o_xla.Hlo.nodes
        in
        Hashtbl.add graphs batch ops;
        ops
  in
  let run ~batch =
    let ops = ops_for batch in
    Engine.with_host_span engine ~cat:"serve" "input-pipeline" (fun () ->
        Engine.spend_host engine s.Strategy.per_step_host);
    List.iter
      (fun op ->
        Engine.spend_host engine s.Strategy.per_op_host;
        ignore (Engine.dispatch engine op))
      ops;
    Engine.sync engine
  in
  (run, (fun () -> 0), (fun () -> 0), fun () -> Hashtbl.length graphs)

let create ?(record = true) ~id ~spec strategy kind =
  let recorder = Recorder.create ~enabled:record () in
  let engine = Engine.create ~recorder spec in
  let run, cache_hits, cache_misses, compiled_programs =
    match strategy with
    | Lazy_tensor -> make_lazy_runner engine kind
    | Op_by_op s -> make_replay_runner engine s kind
  in
  {
    id;
    engine;
    free_at = 0.0;
    batches = 0;
    slots = 0;
    run;
    cache_hits;
    cache_misses;
    compiled_programs;
  }

let id t = t.id
let engine t = t.engine
let free_at t = t.free_at
let batches t = t.batches
let slots t = t.slots
let cache_hits t = t.cache_hits ()
let cache_misses t = t.cache_misses ()
let compiled_programs t = t.compiled_programs ()

(** Run one padded batch starting at simulated time [now] (which must be
    >= [free_at]). Returns the completion time; the replica is busy until
    then. *)
let run_batch t ~now ~batch =
  if now < t.free_at then invalid_arg "Replica.run_batch: replica still busy";
  let h = Engine.host_time t.engine in
  (* The replica idled from the end of its last batch until [now]; advance
     its host clock across the gap so the timeline shows the idle stretch. *)
  if now > h then
    Engine.with_host_span t.engine ~cat:"serve" "idle" (fun () ->
        Engine.spend_host t.engine (now -. h));
  let rec_ = Engine.recorder t.engine in
  let span =
    Recorder.begin_span rec_ Recorder.Host ~cat:"serve"
      ~args:[ ("batch", string_of_int batch) ]
      "serve-batch"
      ~at:(Engine.host_time t.engine)
  in
  S4o_obs.Memory.with_tag S4o_obs.Memory.global "serve-batch" (fun () ->
      t.run ~batch);
  Recorder.end_span rec_ span ~at:(Engine.host_time t.engine);
  t.batches <- t.batches + 1;
  t.slots <- t.slots + batch;
  t.free_at <- Engine.host_time t.engine;
  t.free_at
