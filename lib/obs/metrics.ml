type counter = { mutable count : int }
type gauge = { mutable last : float; mutable peak : float; mutable samples : int }

type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : float array;  (* upper bounds, ascending; +inf implicit *)
  bucket_counts : int array;  (* length = Array.length buckets + 1 *)
  mutable sample_buf : float array;
      (* every observation up to [reservoir_size], then a uniform sample *)
  mutable n_samples : int;  (* used prefix of [sample_buf] *)
  mutable draw : int;  (* LCG state choosing reservoir slots *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 16; order = [] }

let register t name m =
  match Hashtbl.find_opt t.tbl name with
  | Some existing -> existing
  | None ->
      Hashtbl.add t.tbl name m;
      t.order <- name :: t.order;
      m

let counter t name =
  match register t name (Counter { count = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (name ^ " is already registered with another type")

let gauge t name =
  match register t name (Gauge { last = 0.0; peak = neg_infinity; samples = 0 }) with
  | Gauge g -> g
  | _ -> invalid_arg (name ^ " is already registered with another type")

(* Quantiles are exact up to this many observations; past it, they come
   from a uniform sample of this size, so a histogram stays this small
   however long it observes. *)
let reservoir_size = 4096
let draw_seed = 0x2545F491

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let histogram ?(buckets = default_buckets) t name =
  let h =
    Histogram
      {
        n = 0;
        sum = 0.0;
        min_v = infinity;
        max_v = neg_infinity;
        buckets;
        bucket_counts = Array.make (Array.length buckets + 1) 0;
        sample_buf = Array.make 64 0.0;
        n_samples = 0;
        draw = draw_seed;
      }
  in
  match register t name h with
  | Histogram h -> h
  | _ -> invalid_arg (name ^ " is already registered with another type")

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let set g v =
  g.last <- v;
  g.samples <- g.samples + 1;
  if v > g.peak then g.peak <- v

let gauge_value g = g.last
let gauge_peak g = if g.samples = 0 then 0.0 else g.peak

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  if h.n_samples < reservoir_size then begin
    if h.n_samples = Array.length h.sample_buf then begin
      let bigger = Array.make (min reservoir_size (2 * h.n_samples)) 0.0 in
      Array.blit h.sample_buf 0 bigger 0 h.n_samples;
      h.sample_buf <- bigger
    end;
    h.sample_buf.(h.n_samples) <- v;
    h.n_samples <- h.n_samples + 1
  end
  else begin
    (* reservoir sampling: the [n]th observation replaces a uniformly
       chosen slot with probability [reservoir_size / n] *)
    h.draw <- (h.draw * 3935559000370003845) + 1;
    (* the high bits of a power-of-two LCG are the well-mixed ones *)
    let j = (h.draw lsr 20) mod h.n in
    if j < reservoir_size then h.sample_buf.(j) <- v
  end;
  let rec place i =
    if i >= Array.length h.buckets then Array.length h.buckets
    else if v <= h.buckets.(i) then i
    else place (i + 1)
  in
  let i = place 0 in
  h.bucket_counts.(i) <- h.bucket_counts.(i) + 1

let hist_count h = h.n
let hist_sum h = h.sum
let hist_max h = if h.n = 0 then 0.0 else h.max_v
let hist_min h = if h.n = 0 then 0.0 else h.min_v
let hist_mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if h.n_samples = 0 then 0.0
  else begin
    let sorted = Array.sub h.sample_buf 0 h.n_samples in
    Array.sort Float.compare sorted;
    (* linear interpolation between closest ranks *)
    let pos = q *. float_of_int (h.n_samples - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (h.n_samples - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

type hist_summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary h =
  (* one sort for all three quantiles *)
  if h.n_samples = 0 then
    { count = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  else begin
    let sorted = Array.sub h.sample_buf 0 h.n_samples in
    Array.sort Float.compare sorted;
    let at q =
      let pos = q *. float_of_int (h.n_samples - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (h.n_samples - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    in
    {
      count = h.n;
      mean = hist_mean h;
      min = hist_min h;
      max = hist_max h;
      p50 = at 0.5;
      p90 = at 0.9;
      p99 = at 0.99;
    }
  end

let hist_buckets h =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let upper =
           if i < Array.length h.buckets then h.buckets.(i) else infinity
         in
         (upper, c))
       h.bucket_counts)

type value =
  | Counter_v of int
  | Gauge_v of { last : float; peak : float }
  | Histogram_v of { count : int; sum : float; mean : float; max : float }

let snapshot t =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find t.tbl name with
        | Counter c -> Counter_v c.count
        | Gauge g -> Gauge_v { last = gauge_value g; peak = gauge_peak g }
        | Histogram h ->
            Histogram_v
              { count = h.n; sum = h.sum; mean = hist_mean h; max = hist_max h }
      in
      (name, v))
    t.order

type export =
  | Counter_x of int
  | Gauge_x of { last : float; peak : float }
  | Histogram_x of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list;
      quantiles : (float * float) list;
    }

let export t =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find t.tbl name with
        | Counter c -> Counter_x c.count
        | Gauge g -> Gauge_x { last = gauge_value g; peak = gauge_peak g }
        | Histogram h ->
            Histogram_x
              {
                count = h.n;
                sum = h.sum;
                min = hist_min h;
                max = hist_max h;
                buckets = hist_buckets h;
                quantiles =
                  List.map (fun q -> (q, quantile h q)) [ 0.5; 0.9; 0.99 ];
              }
      in
      (name, v))
    t.order

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.count <- 0
      | Gauge g ->
          g.last <- 0.0;
          g.peak <- neg_infinity;
          g.samples <- 0
      | Histogram h ->
          h.n <- 0;
          h.sum <- 0.0;
          h.min_v <- infinity;
          h.max_v <- neg_infinity;
          h.n_samples <- 0;
          h.draw <- draw_seed;
          Array.fill h.bucket_counts 0 (Array.length h.bucket_counts) 0)
    t.tbl

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v c -> Format.fprintf ppf "%s: %d@." name c
      | Gauge_v { last; peak } ->
          Format.fprintf ppf "%s: %g (peak %g)@." name last peak
      | Histogram_v { count; sum; mean; max } ->
          Format.fprintf ppf "%s: n=%d sum=%g mean=%g max=%g@." name count sum
            mean max)
    (snapshot t)
