module Recorder = S4o_obs.Recorder
module Metrics = S4o_obs.Metrics

type t = {
  spec : Device_spec.t;
  recorder : Recorder.t;
  metrics : Metrics.t;
  depth_hist : Metrics.histogram;
  mutable host : float;
  mutable device_ready : float;
  mutable kernels : int;
  mutable busy : float;
  mutable stalled : float;
  mutable max_depth : float;
}

let create ?recorder spec =
  let recorder =
    match recorder with Some r -> r | None -> Recorder.create ~enabled:false ()
  in
  let metrics = Metrics.create () in
  {
    spec;
    recorder;
    metrics;
    depth_hist = Metrics.histogram metrics "engine.pipeline_depth_seconds";
    host = 0.0;
    device_ready = 0.0;
    kernels = 0;
    busy = 0.0;
    stalled = 0.0;
    max_depth = 0.0;
  }

let spec t = t.spec
let recorder t = t.recorder
let metrics t = t.metrics
let host_time t = t.host
let device_ready_at t = t.device_ready
let spend_host t dt = t.host <- t.host +. dt

let with_host_span t ?cat ?args name f =
  let sp = Recorder.begin_span t.recorder Recorder.Host ?cat ?args name ~at:t.host in
  let r = f () in
  Recorder.end_span t.recorder sp ~at:t.host;
  r

let dispatch t (op : Op_info.t) =
  let time = Device_spec.kernel_time t.spec op in
  let start = Float.max t.host t.device_ready in
  t.device_ready <- start +. time;
  t.kernels <- t.kernels + 1;
  t.busy <- t.busy +. time;
  let depth = t.device_ready -. t.host in
  if depth > t.max_depth then t.max_depth <- depth;
  Metrics.observe t.depth_hist depth;
  if Recorder.enabled t.recorder then begin
    Recorder.span t.recorder Recorder.Device ~cat:"kernel"
      ~args:
        [
          ("kind", Op_info.kind_name op.kind);
          ("flops", string_of_int op.flops);
          ("bytes_in", string_of_int op.bytes_in);
          ("bytes_out", string_of_int op.bytes_out);
        ]
      op.name ~start ~finish:t.device_ready;
    Recorder.counter t.recorder Recorder.Device "pipeline_depth" ~at:t.host depth;
    (* When off-heap tensor tracking is on, sample it alongside every
       dispatch so the exported trace carries a live-memory counter track
       aligned with the kernel timeline. *)
    let mem = S4o_obs.Memory.global in
    if S4o_obs.Memory.enabled mem then
      Recorder.counter t.recorder Recorder.Host "tensor_live_bytes" ~at:t.host
        (float_of_int (S4o_obs.Memory.live_bytes mem))
  end;
  t.device_ready

let sync t =
  if t.device_ready > t.host then begin
    Recorder.span t.recorder Recorder.Host ~cat:"stall" "sync" ~start:t.host
      ~finish:t.device_ready;
    t.stalled <- t.stalled +. (t.device_ready -. t.host);
    t.host <- t.device_ready
  end

let pipeline_depth t = Float.max 0.0 (t.device_ready -. t.host)
let kernels_launched t = t.kernels
let device_busy_time t = t.busy
let host_stall_time t = t.stalled
let max_pipeline_depth t = t.max_depth
let stats t =
  {
    S4o_obs.Stats.zero with
    S4o_obs.Stats.kernels_launched = t.kernels;
    host_seconds = t.host;
    device_busy_seconds = t.busy;
    host_stall_seconds = t.stalled;
    max_pipeline_depth = t.max_depth;
    spans_recorded = Recorder.span_count t.recorder;
    tensor_live_bytes = S4o_obs.Memory.live_bytes S4o_obs.Memory.global;
    tensor_peak_bytes = S4o_obs.Memory.peak_bytes S4o_obs.Memory.global;
    tensor_allocs = S4o_obs.Memory.alloc_count S4o_obs.Memory.global;
    tensor_frees = S4o_obs.Memory.free_count S4o_obs.Memory.global;
  }

let reset t =
  t.host <- 0.0;
  t.device_ready <- 0.0;
  t.kernels <- 0;
  t.busy <- 0.0;
  t.stalled <- 0.0;
  t.max_depth <- 0.0;
  Metrics.reset t.metrics;
  Recorder.clear t.recorder
