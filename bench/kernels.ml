(** [bench kernels]: the repo's first {e real} (wall-clock, non-simulated)
    performance section. It measures the Bigarray kernel layer against the
    retained {!S4o_tensor.Reference} implementations — matmul GFLOP/s,
    im2col conv2d vs the naive loop nest, fused elementwise vs the generic
    stride walker, the channel-broadcast and leading-axis-sum plans that
    BatchNorm runs, and matmul scaling over 1/2/4/8 domains — and with
    [--json] writes [BENCH_kernels.json].

    Regression gating: [bench/kernels_baseline.json] stores the {e
    speedups} over the reference kernels measured at check-in time, not
    absolute seconds — both sides of each ratio run on the same machine in
    the same process, so the number is comparable across CI runners where
    raw timings are not. The run fails (exit 1) if any kernel's current
    speedup drops below half its baseline: a generous bound that only an
    accidental algorithmic regression (e.g. losing the blocking or the
    im2col path) can trip. *)

module Dense = S4o_tensor.Dense
module Convolution = S4o_tensor.Convolution
module Reference = S4o_tensor.Reference
module Pool = S4o_tensor.Pool
module Recorder = S4o_obs.Recorder
module Json = S4o_obs.Json

let now = Unix.gettimeofday

(* Wall-clock timing: warm once, then repeat until [min_time] has
   accumulated and report the mean per call. Spans are recorded around the
   whole measured block with real timestamps so kernel time shows up in
   Chrome traces next to the simulated timelines. *)
let recorder = Recorder.create ()
let bench_start = now ()

let time_it ?(min_time = 0.2) ~name f =
  ignore (Sys.opaque_identity (f ()));
  let span =
    Recorder.begin_span recorder Recorder.Host ~cat:"kernel-bench" name
      ~at:(now () -. bench_start)
  in
  (* Best single call over a [min_time] budget: the minimum is the robust
     statistic on a shared machine — preemption only ever inflates a
     sample, so the fastest observation is the closest to the kernel's
     true cost (same reasoning as bechamel's stabilized runs). *)
  let t0 = now () in
  let reps = ref 0 in
  let best = ref Float.infinity in
  while now () -. t0 < min_time do
    let s = now () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (now () -. s);
    incr reps
  done;
  let per_call = !best in
  Recorder.end_span recorder span
    ~args:
      [
        ("reps", string_of_int !reps);
        ("best_s", Printf.sprintf "%.6e" per_call);
      ]
    ~at:(now () -. bench_start);
  per_call

type result = { key : string; speedup : float; row : Json.t }

let ms t = Printf.sprintf "%.3f" (t *. 1000.0)

(* ------------------------------------------------------------- matmul -- *)

let bench_matmul ~quick ~min_time =
  let sizes = if quick then [ 64; 128; 256 ] else [ 64; 128; 256; 512 ] in
  let rng = S4o_tensor.Prng.create 42 in
  let rows =
    List.map
      (fun s ->
        let a = Dense.rand_normal rng [| s; s |] in
        let b = Dense.rand_normal rng [| s; s |] in
        let new_t =
          time_it ~min_time ~name:(Printf.sprintf "matmul-%d" s) (fun () ->
              Dense.matmul ~domains:1 a b)
        in
        let ref_t =
          time_it ~min_time ~name:(Printf.sprintf "matmul-ref-%d" s) (fun () ->
              Reference.matmul a b)
        in
        let flops = 2.0 *. (float_of_int s ** 3.0) in
        let gflops = flops /. new_t /. 1e9 in
        let speedup = ref_t /. new_t in
        ( [
            string_of_int s;
            ms new_t;
            ms ref_t;
            Printf.sprintf "%.2f" gflops;
            Printf.sprintf "%.2fx" speedup;
          ],
          {
            key = Printf.sprintf "matmul_%d" s;
            speedup;
            row =
              Json.Obj
                [
                  ("size", Json.Num (float_of_int s));
                  ("new_s", Json.Num new_t);
                  ("ref_s", Json.Num ref_t);
                  ("gflops", Json.Num gflops);
                  ("speedup", Json.Num speedup);
                ];
          } ))
      sizes
  in
  Report.table
    ~title:
      "Kernels 1: matmul, blocked Bigarray kernel (1 domain) vs retained \
       naive reference"
    ~headers:[ "size"; "blocked ms"; "naive ms"; "GFLOP/s"; "speedup" ]
    ~rows:(List.map fst rows);
  List.map snd rows

(* ------------------------------------------------------------- conv2d -- *)

let bench_conv ~quick ~min_time =
  (* A ResNet basic-block shape: 3x3 Same convolution on a 14x14x64 feature
     map (batch 8); --quick halves batch and channels. *)
  let n, hw, c = if quick then (4, 14, 32) else (8, 14, 64) in
  let rng = S4o_tensor.Prng.create 43 in
  let input = Dense.rand_normal rng [| n; hw; hw; c |] in
  let filter = Dense.rand_normal rng [| 3; 3; c; c |] in
  let shape_str = Printf.sprintf "[%d;%d;%d;%d]x[3;3;%d;%d]" n hw hw c c c in
  let new_t =
    time_it ~min_time ~name:"conv2d-im2col" (fun () ->
        Convolution.conv2d ~domains:1 ~padding:Convolution.Same input filter)
  in
  let ref_t =
    time_it ~min_time ~name:"conv2d-naive" (fun () ->
        Reference.conv2d ~padding:Convolution.Same input filter)
  in
  let flops =
    float_of_int
      (Convolution.conv2d_flops ~padding:Convolution.Same
         ~input:[| n; hw; hw; c |] [| 3; 3; c; c |])
  in
  let speedup = ref_t /. new_t in
  Report.table
    ~title:"Kernels 2: conv2d (ResNet-block shape), im2col vs naive loops"
    ~headers:[ "shape"; "im2col ms"; "naive ms"; "GFLOP/s"; "speedup" ]
    ~rows:
      [
        [
          shape_str;
          ms new_t;
          ms ref_t;
          Printf.sprintf "%.2f" (flops /. new_t /. 1e9);
          Printf.sprintf "%.2fx" speedup;
        ];
      ];
  [
    {
      key = "conv2d_resnet_block";
      speedup;
      row =
        Json.Obj
          [
            ("shape", Json.Str shape_str);
            ("new_s", Json.Num new_t);
            ("ref_s", Json.Num ref_t);
            ("speedup", Json.Num speedup);
          ];
    };
  ]

(* -------------------------------------------------------- elementwise -- *)

let bench_elementwise ~quick ~min_time =
  let n = if quick then 200_000 else 1_000_000 in
  let rng = S4o_tensor.Prng.create 44 in
  let a = Dense.rand_normal rng [| n |] in
  let b = Dense.rand_normal rng [| n |] in
  let fused_t =
    time_it ~min_time ~name:"elementwise-fused" (fun () -> Dense.add a b)
  in
  let strided_t =
    time_it ~min_time ~name:"elementwise-strided" (fun () ->
        Dense.map2_strided ( +. ) a b)
  in
  let per f = f /. float_of_int n *. 1e9 in
  let speedup = strided_t /. fused_t in
  Report.table
    ~title:
      "Kernels 3: elementwise add, fused flat loop vs generic broadcast \
       walker"
    ~headers:[ "elements"; "fused ns/elem"; "strided ns/elem"; "speedup" ]
    ~rows:
      [
        [
          string_of_int n;
          Printf.sprintf "%.2f" (per fused_t);
          Printf.sprintf "%.2f" (per strided_t);
          Printf.sprintf "%.2fx" speedup;
        ];
      ];
  [
    {
      key = "elementwise_add";
      speedup;
      row =
        Json.Obj
          [
            ("elements", Json.Num (float_of_int n));
            ("fused_ns", Json.Num (per fused_t));
            ("strided_ns", Json.Num (per strided_t));
            ("speedup", Json.Num speedup);
          ];
    };
  ]

(* ---------------------------------------------------- broadcast plans -- *)

(* BatchNorm's two hot shapes on a ResNet activation map: a per-channel
   operand broadcast over [N;H;W;C] (the rows plan) and the per-channel
   statistic summed over the leading axes (the row-accumulate reduction).
   Same shape in --quick and full runs, so both gate the same ratio. *)
let bench_broadcast ~min_time =
  let shape = [| 32; 32; 32; 8 |] in
  let rng = S4o_tensor.Prng.create 46 in
  let x = Dense.rand_normal rng shape in
  let c = Dense.rand_normal rng [| 8 |] in
  let n = Dense.numel x in
  let per t = t /. float_of_int n *. 1e9 in
  let measure key name fast slow =
    let fast_t = time_it ~min_time ~name fast in
    let slow_t = time_it ~min_time ~name:(name ^ "-baseline") slow in
    let speedup = slow_t /. fast_t in
    ( [
        key;
        Printf.sprintf "%.2f" (per fast_t);
        Printf.sprintf "%.2f" (per slow_t);
        Printf.sprintf "%.2fx" speedup;
      ],
      {
        key;
        speedup;
        row =
          Json.Obj
            [
              ("shape", Json.Str "[32;32;32;8]");
              ("fast_ns", Json.Num (per fast_t));
              ("baseline_ns", Json.Num (per slow_t));
              ("speedup", Json.Num speedup);
            ];
      } )
  in
  let rows =
    [
      measure "elementwise_channel_add" "channel-add"
        (fun () -> Dense.add x c)
        (fun () -> Dense.map2_strided ( +. ) x c);
      measure "sum_axes_leading" "sum-axes-leading"
        (fun () -> Dense.sum_axes x [ 0; 1; 2 ])
        (fun () -> Reference.sum_axes x [ 0; 1; 2 ]);
    ]
  in
  Report.table
    ~title:
      "Kernels 3b: [32;32;32;8] channel broadcast (add [8], vs the strided \
       walker) and leading-axis sum over [0;1;2] (vs Reference)"
    ~headers:[ "kernel"; "fast ns/elem"; "baseline ns/elem"; "speedup" ]
    ~rows:(List.map fst rows);
  List.map snd rows

(* ------------------------------------------------------------ scaling -- *)

let bench_scaling ~quick ~min_time =
  let s = if quick then 192 else 384 in
  let rng = S4o_tensor.Prng.create 45 in
  let a = Dense.rand_normal rng [| s; s |] in
  let b = Dense.rand_normal rng [| s; s |] in
  let serial =
    time_it ~min_time ~name:"matmul-scaling-1" (fun () ->
        Dense.matmul ~domains:1 a b)
  in
  let rows =
    List.map
      (fun d ->
        let t =
          if d = 1 then serial
          else
            time_it ~min_time
              ~name:(Printf.sprintf "matmul-scaling-%d" d)
              (fun () -> Dense.matmul ~domains:d a b)
        in
        ( [
            string_of_int d;
            ms t;
            Printf.sprintf "%.2fx" (serial /. t);
          ],
          Json.Obj
            [
              ("domains", Json.Num (float_of_int d));
              ("seconds", Json.Num t);
              ("speedup_vs_serial", Json.Num (serial /. t));
            ] ))
      [ 1; 2; 4; 8 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Kernels 4: %dx%d matmul over the domain pool (machine has %d \
          recommended domains; scaling tops out there)"
         s s
         (Domain.recommended_domain_count ()))
    ~headers:[ "domains"; "ms"; "speedup vs 1" ]
    ~rows:(List.map fst rows);
  List.map snd rows

(* ----------------------------------------------------- baseline gating -- *)

let baseline_path = "bench/kernels_baseline.json"

let read_baseline () =
  if not (Sys.file_exists baseline_path) then None
  else begin
    let ic = open_in baseline_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Error msg ->
        Printf.eprintf "warning: cannot parse %s: %s\n" baseline_path msg;
        None
    | Ok doc -> Json.member "speedups" doc
  end

let check_baseline results =
  match read_baseline () with
  | None ->
      Report.note "  no %s found; skipping the regression gate." baseline_path;
      true
  | Some (Json.Obj entries) ->
      let ok = ref true in
      List.iter
        (fun (key, v) ->
          match (List.find_opt (fun r -> r.key = key) results, v) with
          | Some r, Json.Num expected ->
              if r.speedup < expected /. 2.0 then begin
                ok := false;
                Printf.eprintf
                  "kernel regression: %s speedup %.2fx is below half the \
                   baseline %.2fx\n"
                  key r.speedup expected
              end
          | None, _ ->
              (* --quick and full runs share keys for everything gated *)
              Printf.eprintf "warning: baseline key %s not measured\n" key
          | Some _, _ -> Printf.eprintf "warning: baseline key %s not a number\n" key)
        entries;
      if !ok then Report.note "  all kernels within 2x of baseline speedups.";
      !ok
  | Some _ ->
      Printf.eprintf "warning: malformed %s; skipping gate\n" baseline_path;
      true

(* -------------------------------------------------------------- entry -- *)

let run ~quick ~json ~trace_out () =
  (* --quick also shortens each measurement window: CI wants the shape of
     the numbers, not tight confidence intervals. *)
  let min_time = if quick then 0.05 else 0.2 in
  Printf.printf
    "\n== Kernel benchmarks (real wall-clock, not simulated time) ==\n%!";
  let matmul_results = bench_matmul ~quick ~min_time in
  let conv_results = bench_conv ~quick ~min_time in
  let elt_results = bench_elementwise ~quick ~min_time in
  let broadcast_results = bench_broadcast ~min_time in
  let scaling_rows = bench_scaling ~quick ~min_time in
  let results =
    matmul_results @ conv_results @ elt_results @ broadcast_results
  in
  if json then begin
    let doc =
      Json.Obj
        [
          ( "kernels",
            Json.Obj
              [
                ("quick", Json.Bool quick);
                ( "matmul",
                  Json.Arr (List.map (fun r -> r.row) matmul_results) );
                ("conv2d", Json.Arr (List.map (fun r -> r.row) conv_results));
                ( "elementwise",
                  Json.Arr (List.map (fun r -> r.row) elt_results) );
                ( "broadcast",
                  Json.Arr (List.map (fun r -> r.row) broadcast_results) );
                ("scaling", Json.Arr scaling_rows);
                ( "speedups",
                  Json.Obj
                    (List.map (fun r -> (r.key, Json.Num r.speedup)) results)
                );
              ] );
        ]
    in
    let oc = open_out "BENCH_kernels.json" in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Report.note "  wrote kernel timings to BENCH_kernels.json."
  end;
  (match trace_out with
  | None -> ()
  | Some path ->
      Recorder.set_enabled recorder true;
      S4o_obs.Chrome_trace.to_file ~process:"kernel-bench" path recorder;
      Report.note "  Chrome trace with %d events written to %s."
        (Recorder.event_count recorder)
        path);
  if not (check_baseline results) then exit 1
