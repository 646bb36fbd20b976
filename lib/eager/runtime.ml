module Engine = S4o_device.Engine
module Recorder = S4o_obs.Recorder
module Metrics = S4o_obs.Metrics

type t = {
  engine : Engine.t;
  dispatch_overhead : float;
  ops : Metrics.counter;
}

(* Default per-op host overhead of the S4TF eager runtime, calibrated to the
   Table 3 regime (op-by-op dispatch through a dynamic runtime). *)
let default_dispatch_overhead = 120e-6

let create ?(dispatch_overhead = default_dispatch_overhead) engine =
  {
    engine;
    dispatch_overhead;
    ops = Metrics.counter (Engine.metrics engine) "eager.ops_dispatched";
  }

let engine t = t.engine

let dispatch t (op : S4o_ops.Catalog.op) args =
  let start = Engine.host_time t.engine in
  Engine.spend_host t.engine t.dispatch_overhead;
  ignore (Engine.dispatch t.engine op.info);
  let r = Engine.recorder t.engine in
  if Recorder.enabled r then begin
    let params = S4o_ops.Catalog.params_to_string op.kind in
    Recorder.span r Recorder.Host ~cat:"dispatch"
      ~args:
        (("flops", string_of_int op.info.S4o_device.Op_info.flops)
        :: (if params = "" then [] else [ ("attrs", params) ]))
      (S4o_ops.Catalog.name op.kind) ~start
      ~finish:(Engine.host_time t.engine)
  end;
  Metrics.incr t.ops;
  op.kernel args

let sync t = Engine.sync t.engine

let stats t =
  {
    (Engine.stats t.engine) with
    S4o_obs.Stats.ops_dispatched = Metrics.counter_value t.ops;
  }

let reset_stats t = Engine.reset t.engine
let host_time t = Engine.host_time t.engine
