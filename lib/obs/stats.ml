type t = {
  ops_dispatched : int;
  traces_cut : int;
  auto_cuts : int;
  cache_hits : int;
  cache_misses : int;
  ops_traced : int;
  largest_trace : int;
  compile_seconds : float;
  kernels_launched : int;
  host_seconds : float;
  device_busy_seconds : float;
  host_stall_seconds : float;
  max_pipeline_depth : float;
  spans_recorded : int;
  tensor_live_bytes : int;
  tensor_peak_bytes : int;
  tensor_allocs : int;
  tensor_frees : int;
}

let zero =
  {
    ops_dispatched = 0;
    traces_cut = 0;
    auto_cuts = 0;
    cache_hits = 0;
    cache_misses = 0;
    ops_traced = 0;
    largest_trace = 0;
    compile_seconds = 0.0;
    kernels_launched = 0;
    host_seconds = 0.0;
    device_busy_seconds = 0.0;
    host_stall_seconds = 0.0;
    max_pipeline_depth = 0.0;
    spans_recorded = 0;
    tensor_live_bytes = 0;
    tensor_peak_bytes = 0;
    tensor_allocs = 0;
    tensor_frees = 0;
  }

let rows t =
  let i = string_of_int in
  let ms v = Printf.sprintf "%.3f ms" (v *. 1e3) in
  [
    ("ops dispatched (eager)", i t.ops_dispatched);
    ("traces cut", i t.traces_cut);
    ("auto cuts", i t.auto_cuts);
    ("cache hits", i t.cache_hits);
    ("cache misses (compiles)", i t.cache_misses);
    ("ops traced", i t.ops_traced);
    ("largest trace", i t.largest_trace);
    ("compile time", ms t.compile_seconds);
    ("kernels launched", i t.kernels_launched);
    ("host time", ms t.host_seconds);
    ("device busy", ms t.device_busy_seconds);
    ("host stalled", ms t.host_stall_seconds);
    ("max pipeline depth", ms t.max_pipeline_depth);
    ("spans recorded", i t.spans_recorded);
    ("tensor live bytes", i t.tensor_live_bytes);
    ("tensor peak bytes", i t.tensor_peak_bytes);
    ("tensor allocs", i t.tensor_allocs);
    ("tensor frees", i t.tensor_frees);
  ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-26s %s@." k v) (rows t)
