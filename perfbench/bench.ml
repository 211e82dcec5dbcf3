(* One workload run of the sizing-pipeline benchmark.

   bench.exe --workload W --seed N --seconds S --trace 0|1 [--cli PATH] [--commit SHA]

   The process sets the workload up three times (the set-up time is the
   median of the three; the first one is measured from process start),
   then runs whole rounds of the workload's operation in a closed loop
   for S seconds, checks every output, and prints a fingerprint line and,
   last, one JSON result line.  With --trace 0 Obs stays off and the
   result holds the end-to-end metrics; with --trace 1 every other round
   runs with Obs spans and metrics on (or, for serve, with per-request
   telemetry) and the result holds the per-layer metrics. *)

module B = Bufsize
module Obs = B.Obs
module J = B.Json

let t_process = Unix.gettimeofday ()
let now = Unix.gettimeofday
let setup_reps = 3

(* ---------------------------------------------------------------- args *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload {table1-sweep|fig3-resim|serve-explore|bridge-kron} --seed N \
     --seconds S --trace {0|1} [--cli PATH] [--commit SHA]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  {
    workload = get "workload";
    seed = int_of "seed";
    seconds = float_of_int (int_of "seconds");
    trace;
    cli = Option.value ~default:"_build/default/bin/bufsize_cli.exe" (Hashtbl.find_opt tbl "cli");
    commit = Option.value ~default:"unknown" (Hashtbl.find_opt tbl "commit");
  }

(* --------------------------------------------------------------- stats *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* ----------------------------------------------------- process probes *)

let proc_status_kb pid field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > String.length field
                    && String.sub line 0 (String.length field) = field ->
            Scanf.sscanf (String.sub line (String.length field) (String.length line - String.length field))
              " %f" Fun.id
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let peak_rss_mb pid = proc_status_kb pid "VmHWM:" /. 1024.

(* utime + stime of another process, in seconds (clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let after = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields after the command: state is 3rd overall, utime 14th, stime 15th *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------- results *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let global_ok = ref true

let fail_op what =
  Atomic.incr failed;
  prerr_endline ("perfbench: failed op: " ^ what)

let fail_global what =
  global_ok := false;
  prerr_endline ("perfbench: failed check: " ^ what)

(* Per-layer sums over the traced ops; reported divided by their count
   unless the metric is already a ratio. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 32
let traced_ops = ref 0
let lat_untraced = ref []
let lat_traced = ref []

let add name v = Hashtbl.replace layers name (v +. Option.value ~default:0. (Hashtbl.find_opt layers name))
let get name = Option.value ~default:0. (Hashtbl.find_opt layers name)

let per_layer_metrics =
  [
    ("lp.solve_ms", "ms");
    ("lp.pivots", "count");
    ("lp.us_per_pivot", "us");
    ("lp.refactorizations", "count");
    ("lp.rows", "count");
    ("lp.nnz", "count");
    ("lp_formulation.assemble_ms", "ms");
    ("solve_cache.lp_hit_ratio", "ratio");
    ("solve_cache.sizing_hit_ratio", "ratio");
    ("sizing.build_ms", "ms");
    ("sizing.occupancy_ms", "ms");
    ("sizing.other_ms", "ms");
    ("spec_parser.parse_ms", "ms");
    ("des.events", "count");
    ("sim.replication_ms", "ms");
    ("des.events_per_s", "1/s");
    ("pool.efficiency", "ratio");
    ("san.sweeps", "count");
    ("san.solve_ms", "ms");
    ("kronecker.ns_per_state_sweep", "ns");
    ("monolithic.split_ms", "ms");
    ("serve.queue_ms", "ms");
    ("serve.service_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("process.cpu_ms_per_op", "ms");
    ("gc.minor_mb_per_op", "MB");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

(* Derived per-layer values from the sums; every metric is per traced
   op unless it is a ratio of two sums. *)
let finish_layers () =
  let n = float_of_int (max 1 !traced_ops) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let per_op name = get name /. n in
  let v = Hashtbl.create 32 in
  let set k x = Hashtbl.replace v k (if Float.is_finite x then x else 0.) in
  List.iter
    (fun k -> set k (per_op k))
    [
      "lp.solve_ms"; "lp.pivots"; "lp.refactorizations"; "lp_formulation.assemble_ms";
      "sizing.build_ms"; "sizing.occupancy_ms"; "sizing.other_ms"; "spec_parser.parse_ms";
      "des.events"; "sim.replication_ms"; "san.sweeps"; "san.solve_ms"; "monolithic.split_ms";
      "serve.queue_ms"; "serve.service_ms"; "serve.overhead_ms"; "process.cpu_ms_per_op";
      "gc.minor_mb_per_op"; "gc.major_collections_per_op";
    ];
  set "lp.rows" (get "lp.rows_max");
  set "lp.nnz" (get "lp.nnz_max");
  set "lp.us_per_pivot" (ratio (1000. *. get "lp.solve_ms") (get "lp.pivots"));
  set "solve_cache.lp_hit_ratio"
    (ratio (get "cache.lp.hits") (get "cache.lp.hits" +. get "cache.lp.misses"));
  set "solve_cache.sizing_hit_ratio"
    (ratio (get "cache.sizing.hits") (get "cache.sizing.hits" +. get "cache.sizing.misses"));
  set "des.events_per_s" (ratio (get "des.events") (get "sim.run_ms" /. 1000.));
  set "pool.efficiency" (ratio (get "sim.replication_ms") (get "pool.window_ms"));
  set "kronecker.ns_per_state_sweep" (ratio (1e6 *. get "san.solve_ms") (get "san.state_sweeps"));
  set "trace.overhead_pct" (100. *. (ratio (median !lat_traced) (median !lat_untraced) -. 1.));
  set "trace.coverage_pct" (100. *. ratio (get "covered_ms") (get "op_ms"));
  List.map (fun (k, unit) -> (k, unit, Option.value ~default:0. (Hashtbl.find_opt v k))) per_layer_metrics

(* ------------------------------------------------------------- spans *)

(* Wall time covered by the union of the given spans' intervals (ms): the
   time a layer was active, however many domains it ran on. *)
let union_ms intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
    | (s, e) :: rest -> (
        match cur with
        | None -> go acc (Some (s, e)) rest
        | Some (cs, ce) when s <= ce -> go acc (Some (cs, Float.max ce e)) rest
        | Some (cs, ce) -> go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0. None sorted

type span = { name : string; start_ms : float; dur_ms : float; attrs : (string * string) list }

let of_obs (s : Obs.span_record) =
  {
    name = s.Obs.sname;
    start_ms = Int64.to_float s.Obs.sstart_ns /. 1e6;
    dur_ms = Int64.to_float s.Obs.sdur_ns /. 1e6;
    attrs = s.Obs.sattrs;
  }

let named spans names = List.filter (fun s -> List.mem s.name names) spans
let window spans names = union_ms (List.map (fun s -> (s.start_ms, s.start_ms +. s.dur_ms)) (named spans names))
let busy spans names = sum (List.map (fun s -> s.dur_ms) (named spans names))

(* Sizing-pipeline layers, from the spans of one op (in-process or a
   serve reply's telemetry).  Returns the wall time they cover. *)
let add_sizing_layers spans =
  let build = window spans [ "sizing.build" ] in
  let solve = window spans [ "sizing.solve-joint"; "sizing.subsystem" ] in
  let occupancy = window spans [ "sizing.occupancy" ] in
  let run = window spans [ "sizing.run" ] in
  add "sizing.build_ms" build;
  add "sizing.occupancy_ms" occupancy;
  add "sizing.other_ms" (Float.max 0. (run -. build -. solve -. occupancy));
  add "lp.solve_ms" (window spans [ "lp_formulation.solve_joint" ]);
  add "lp_formulation.assemble_ms" (window spans [ "lp_formulation.assemble_joint" ]);
  (* The largest joint LP of the run, from the solve span's attributes. *)
  List.iter
    (fun s ->
      List.iter
        (fun (attr, key) ->
          match Option.bind (List.assoc_opt attr s.attrs) float_of_string_opt with
          | Some v -> Hashtbl.replace layers key (Float.max v (get key))
          | None -> ())
        [ ("rows", "lp.rows_max"); ("nnz", "lp.nnz_max") ])
    (named spans [ "lp_formulation.solve_joint" ]);
  run

let counter name = float_of_int (Obs.counter_value (Obs.counter name))

(* Counters Obs records inside the program, read after one traced op. *)
let add_obs_counters () =
  add "lp.pivots" (counter "simplex.pivots" +. counter "simplex_revised.pivots");
  add "lp.refactorizations"
    (counter "simplex.refactorizations" +. counter "simplex_revised.refactorizations");
  List.iter
    (fun k -> add k (counter k))
    [ "cache.lp.hits"; "cache.lp.misses"; "cache.sizing.hits"; "cache.sizing.misses" ];
  add "des.events" (counter "des.events");
  add "san.sweeps" (counter "san.sweeps")

(* Run [f] as one op; when [traced], with Obs spans and metrics on and
   the op's spans, counters, CPU and GC deltas handed to [layer]. *)
let run_op ~traced ~layer f =
  if not traced then begin
    let t0 = now () in
    let r = f () in
    let ms = 1000. *. (now () -. t0) in
    lat_untraced := ms :: !lat_untraced;
    (r, ms)
  end
  else begin
    Obs.reset ();
    Obs.enable_spans ();
    Obs.enable_metrics ();
    let g0 = Gc.quick_stat () and c0 = self_cpu_s () in
    let t0 = now () in
    let r = Fun.protect ~finally:Obs.disable f in
    let ms = 1000. *. (now () -. t0) in
    let c1 = self_cpu_s () and g1 = Gc.quick_stat () in
    lat_traced := ms :: !lat_traced;
    incr traced_ops;
    add "op_ms" ms;
    add "process.cpu_ms_per_op" (1000. *. (c1 -. c0));
    add "gc.minor_mb_per_op" ((g1.Gc.minor_words -. g0.Gc.minor_words) *. 8. /. 1e6);
    add "gc.major_collections_per_op" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    add_obs_counters ();
    layer r (List.map of_obs (Obs.recorded_spans ()));
    Obs.reset ();
    (r, ms)
  end

(* --------------------------------------------------------- the loop *)

type timing = { setup_s : float; lat_ms : float list; span_s : float; rss_mb : float }

(* Set up [setup_reps] times, then run ops until [seconds] have passed,
   from [clients] closed-loop domains (client d runs ops d, d + clients,
   ...).  Traced runs use one client, so an op's spans are its own, and
   run at least two ops so traced and untraced ops alternate.  [op
   ~traced i] runs op [i] and returns its wall latency in ms. *)
let closed_loop args ~clients ~setup ~op =
  let setups =
    List.init setup_reps (fun rep ->
        let t0 = if rep = 0 then t_process else now () in
        setup ();
        now () -. t0)
  in
  let clients = if args.trace then 1 else clients in
  let min_ops = if args.trace then 2 else 1 in
  let t0 = now () in
  let client d () =
    let lat = ref [] in
    let i = ref d in
    while now () -. t0 < args.seconds || !i < min_ops do
      let traced = args.trace && !i mod 2 = 1 in
      Atomic.incr attempted;
      (match op ~traced !i with
      | ms -> lat := ms :: !lat
      | exception e -> fail_op (Printf.sprintf "op %d raised %s" !i (Printexc.to_string e)));
      i := !i + clients
    done;
    !lat
  in
  let others = List.init (clients - 1) (fun d -> Domain.spawn (client (d + 1))) in
  let mine = client 0 () in
  let lat = List.concat (mine :: List.map Domain.join others) in
  { setup_s = median setups; lat_ms = lat; span_s = now () -. t0; rss_mb = peak_rss_mb "self" }

(* ----------------------------------------------------- table1-sweep *)

let table1_config budget =
  { (B.Sizing.default_config ~budget) with B.Sizing.max_states = Gen.table1_max_states }

let check_table1 ~what (results : (int * B.Sizing.result) list) =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  List.iter
    (fun (budget, (r : B.Sizing.result)) ->
      if B.Buffer_alloc.total r.B.Sizing.allocation <> budget then
        err "allocation sums to %d, budget %d" (B.Buffer_alloc.total r.B.Sizing.allocation) budget;
      if not (B.Resilience.health_ok r.B.Sizing.health) then err "health not all-Ok at %d" budget;
      let randomized =
        Array.fold_left
          (fun acc (s : B.Sizing.subsystem_solution) ->
            acc + s.B.Sizing.switching.B.Mdp.Kswitching.num_randomized)
          0 r.B.Sizing.solutions
      in
      if randomized > 1 then err "%d randomized states at budget %d" randomized budget)
    results;
  let losses = List.map (fun (_, r) -> r.B.Sizing.predicted_loss_rate) results in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> b <= a && nonincreasing rest
    | _ -> true
  in
  if not (nonincreasing losses) then err "predicted loss increases with the budget";
  List.iter (fun e -> fail_op (what ^ ": " ^ e)) !bad;
  !bad = []

let table1 args =
  let factors = Gen.table1_factors ~seed:args.seed in
  (* LP-cache counts when the timed phase starts, i.e. after the last set-up. *)
  let lp_base = ref (0, 0) in
  let setup () =
    B.Numeric.Solve_cache.clear_all ();
    let traffic = Gen.table1_traffic (Gen.table1_warmup_factor ~seed:args.seed) in
    ignore (B.Sizing.run (table1_config 160) traffic);
    lp_base := B.Numeric.Lp.cache_stats ()
  in
  let first = Atomic.make None in
  let completed = Atomic.make 0 in
  let op ~traced i =
    let traffic = Gen.table1_traffic (factors i) in
    let layer _ spans =
      add "covered_ms" (add_sizing_layers spans)
    in
    let results, ms =
      run_op ~traced ~layer (fun () ->
          List.map (fun b -> (b, B.Sizing.run (table1_config b) traffic)) Gen.table1_budgets)
    in
    Atomic.incr completed;
    if check_table1 ~what:(Printf.sprintf "table1 op %d (factor %.6f)" i (factors i)) results then
      ignore (Atomic.compare_and_set first None (Some (traffic, List.assoc 160 results)));
    ms
  in
  let t = closed_loop args ~clients:2 ~setup ~op in
  (* One cold LP per profile, and the other two budgets reuse it: no two
     profiles share an LP, and every budget after the first is a hit. *)
  let h0, m0 = !lp_base in
  let h1, m1 = B.Numeric.Lp.cache_stats () and n = Atomic.get completed in
  if m1 - m0 <> n || h1 - h0 <> 2 * n then
    fail_global
      (Printf.sprintf "LP cache saw %d hits / %d misses over %d profiles, expected %d / %d"
         (h1 - h0) (m1 - m0) n (2 * n) n);
  (* Outside the timed phase: the joint LP can only beat proportional
     per-subsystem budgets, whose shares sum to the joint bound. *)
  (match Atomic.get first with
  | None -> ()
  | Some (traffic, joint) ->
      let sep =
        B.Sizing.run { (table1_config 160) with B.Sizing.solver = B.Sizing.Separate } traffic
      in
      let j = joint.B.Sizing.predicted_loss_rate and s = sep.B.Sizing.predicted_loss_rate in
      if j > s *. (1. +. 1e-9) then
        fail_global (Printf.sprintf "joint loss %.9g exceeds separate loss %.9g" j s));
  t

(* ------------------------------------------------------- fig3-resim *)

let fig3 args =
  let seeds = Gen.fig3_seeds ~seed:args.seed in
  let traffic = snd (B.Netproc.create ()) in
  let exp =
    B.experiment ~budget:Gen.fig3_budget ~replications:10 ~horizon:2000. ~warmup:100.
      ~config:{ (B.Sizing.default_config ~budget:Gen.fig3_budget) with B.Sizing.max_states = Gen.fig3_max_states }
      traffic
  in
  let setup () =
    B.Numeric.Solve_cache.clear_all ();
    ignore (B.Sizing.run exp.B.sizing_config traffic)
  in
  let measured = exp.B.horizon -. exp.B.warmup in
  let check i (o : B.outcome) ~sizing_hits ~sizing_misses =
    let bad = ref [] in
    let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
    if sizing_hits <> 1 || sizing_misses <> 0 then
      err "sizing cache %d hits / %d misses, expected a hit" sizing_hits sizing_misses;
    List.iter
      (fun (v : B.variant) ->
        let a = v.B.aggregate in
        Array.iteri
          (fun p lost ->
            let offered = a.B.Replicate.per_proc_offered.(p) in
            let module S = B.Numeric.Stats in
            if S.min_value lost < 0. || S.mean lost > S.mean offered then
              err "%s: processor %d loses %g of %g offered" v.B.label (p + 1) (S.mean lost)
                (S.mean offered);
            (* Offered counts come from the arrival process alone, so
               they are tested on one variant: 17 tests at 5 sigma per op,
               not 51, keep a false alarm below 1e-5 per op. *)
            let expect = B.Traffic.offered_by_proc traffic p *. measured in
            let sigma = sqrt (expect /. float_of_int (S.count offered)) in
            if v == o.B.before && Float.abs (S.mean offered -. expect) > 5. *. sigma then
              err "%s: processor %d offered %g, expected %g +- 5 x %g" v.B.label (p + 1)
                (S.mean offered) expect sigma)
          a.B.Replicate.per_proc_lost)
      [ o.B.before; o.B.after; o.B.timeout_variant ];
    let total v = B.Numeric.Stats.mean v.B.aggregate.B.Replicate.total_lost in
    if not (total o.B.after < total o.B.before) then
      err "CTMDP loss %g not below uniform loss %g" (total o.B.after) (total o.B.before);
    List.iter (fun e -> fail_op (Printf.sprintf "fig3 op %d: %s" i e)) !bad
  in
  let pool_size = B.Pool.size (B.Pool.default ()) in
  let op ~traced i =
    let h0, m0 = B.Sizing.cache_stats () in
    let layer _ spans =
      let sizing = add_sizing_layers spans in
      let sims = window spans [ "sim.run" ] in
      let reps = busy spans [ "sim.replication" ] in
      add "sim.replication_ms" reps;
      add "sim.run_ms" (busy spans [ "sim.run" ]);
      add "pool.window_ms" (window spans [ "sim.replication" ] *. float_of_int pool_size);
      add "covered_ms" (sizing +. sims)
    in
    let o, ms = run_op ~traced ~layer (fun () -> B.size_and_evaluate { exp with B.seed = seeds i }) in
    let h1, m1 = B.Sizing.cache_stats () in
    check i o ~sizing_hits:(h1 - h0) ~sizing_misses:(m1 - m0);
    ms
  in
  (* One client: each op already runs its replications on both domains. *)
  closed_loop args ~clients:1 ~setup ~op

(* ------------------------------------------------------ bridge-kron *)

(* The closed-form M/M/1/K distribution of bus X. *)
let mm1k ~lambda ~mu k =
  let rho = lambda /. mu in
  let w = Array.init (k + 1) (fun n -> rho ** float_of_int n) in
  let z = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. z) w

(* What is wrong with a joint SAN solve, if anything. *)
let kron_problems (g : B.San_bridge.gap_report) =
  let module S = B.San_bridge in
  let j = g.S.joint and sp = g.S.joint.S.spec in
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  if not j.S.converged then err "not converged after %d sweeps" j.S.sweeps;
  if not (j.S.residual <= 1e-9) then err "residual %g" j.S.residual;
  List.iter
    (fun (label, d) ->
      let total = Array.fold_left ( +. ) 0. d in
      if Float.abs (total -. 1.) > 1e-9 then err "%s marginal sums to %.12g" label total)
    [ ("x", j.S.x_dist); ("bridge", j.S.bridge_dist); ("y", j.S.y_dist) ];
  let exact = mm1k ~lambda:sp.B.Monolithic.lambda_x ~mu:sp.B.Monolithic.mu_x sp.B.Monolithic.kx in
  let dev = ref 0. in
  Array.iteri (fun n p -> dev := Float.max !dev (Float.abs (p -. exact.(n)))) j.S.x_dist;
  if !dev > 1e-8 then err "X marginal off M/M/1/K by %g" !dev;
  List.rev !bad

let kron args =
  let specs = Gen.kron_specs ~seed:args.seed in
  let setup () = ignore (B.San_bridge.compare_split (Gen.kron_warmup_spec ~seed:args.seed)) in
  let check i (g : B.San_bridge.gap_report) =
    List.iter
      (fun e -> fail_op (Printf.sprintf "kron op %d (k=%d): %s" i g.B.San_bridge.joint.B.San_bridge.spec.B.Monolithic.kx e))
      (kron_problems g)
  in
  let op ~traced i =
    let spec = specs i in
    let layer (g : B.San_bridge.gap_report) spans =
      let j = g.B.San_bridge.joint in
      let solve = window spans [ "san.stationary" ] in
      add "san.solve_ms" solve;
      add "san.state_sweeps" (float_of_int j.B.San_bridge.states *. float_of_int j.B.San_bridge.sweeps);
      add "covered_ms" solve;
      (* The split solution the gap is measured against, timed on its
         own through the public entry point. *)
      let t0 = now () in
      ignore (B.Monolithic.solve_split spec);
      add "monolithic.split_ms" (1000. *. (now () -. t0))
    in
    let g, ms = run_op ~traced ~layer (fun () -> B.San_bridge.compare_split spec) in
    check i g;
    ms
  in
  closed_loop args ~clients:2 ~setup ~op

(* ---------------------------------------------------- serve-explore *)

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* A persistent client connection with a line reader. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec read_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
      String.sub s 0 i
  | None ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then failwith "daemon closed the connection";
      Buffer.add_subbytes c.pending c.chunk 0 n;
      read_line c

let round_trip c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

let num i = J.Num (float_of_int i)

let request_json ~id ~telemetry (r : Gen.serve_request) =
  let sized =
    [ ("spec", J.Str r.Gen.spec); ("budget", num r.Gen.budget); ("max_states", num Gen.serve_max_states) ]
  in
  let fields =
    match (r.Gen.kind, r.Gen.kron) with
    | (Gen.Size_fresh | Gen.Size_repeat | Gen.Size_rebudget), _ -> ("op", J.Str "size") :: sized
    | Gen.Simulate, _ ->
        [
          ("op", J.Str "simulate");
          ("policy", J.Str "uniform");
          ("horizon", J.Num Gen.serve_sim_horizon);
          ("seed", num r.Gen.sim_seed);
        ]
        @ sized
    | Gen.Kron, Some k ->
        let module M = B.Monolithic in
        [
          ("op", J.Str "kron");
          ("kx", num k.M.kx);
          ("ky", num k.M.ky);
          ("bridge", num k.M.ky);
          ("lambda_x", J.Num k.M.lambda_x);
          ("lambda_y", J.Num k.M.lambda_y);
          ("cross", J.Num k.M.cross_fraction);
          ("mu_x", J.Num k.M.mu_x);
          ("mu_y", J.Num k.M.mu_y);
        ]
    | Gen.Kron, None -> invalid_arg "kron request without a spec"
  in
  J.encode
    (J.Obj ((("id", num id) :: fields) @ if telemetry then [ ("telemetry", J.Bool true) ] else []))

type daemon = { pid : int; socket : string }

let live_daemons = ref []

(* SIGTERM drains in-flight requests; a request that never finishes
   would hold the drain forever, so the daemon gets 10 s and then
   SIGKILL. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ d.socket; d.socket ^ ".metrics.json" ]


let start_daemon args ~rep =
  let dir = ".perfbench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Printf.sprintf "%s/serve-%d-%d.sock" dir (Unix.getpid ()) rep in
  (* Tracing turns the daemon's Obs metrics on, which the metrics op
     reads; the file it also writes at exit is removed in [stop_daemon]. *)
  let metrics =
    if args.trace then [| "--metrics-json"; socket ^ ".metrics.json" |] else [||]
  in
  let argv =
    Array.concat [ [| args.cli; "serve"; "--socket"; socket; "--workers"; "2"; "--queue"; "64" |]; metrics ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process args.cli argv devnull devnull devnull in
  Unix.close devnull;
  let d = { pid; socket } in
  live_daemons := d :: !live_daemons;
  let deadline = now () +. 20. in
  let rec wait () =
    match connect socket with
    | Some c -> c
    | None ->
        if now () > deadline then failwith "daemon did not come up";
        Unix.sleepf 0.01;
        wait ()
  in
  (d, wait ())

let reply_ok ~id line =
  match J.parse line with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok r ->
      if J.member "id" r <> Some (num id) then Error "reply carries another id"
      else if J.mem_string "status" r <> Some "ok" then Error ("status not ok: " ^ line)
      else Ok r

let size_config budget =
  { (B.Sizing.default_config ~budget) with B.Sizing.max_states = Gen.serve_max_states }

type sent = {
  conn_id : int;
  idx : int;
  id : int;
  req : Gen.serve_request;
  telemetry : bool;
  rtt_ms : float;
  reply : string;
}

let serve args =
  let warm = Gen.serve_warmup_specs ~seed:args.seed in
  let reps = ref 0 in
  let setup () =
    List.iter stop_daemon !live_daemons;
    incr reps;
    let d, c = start_daemon args ~rep:!reps in
    List.iteri
      (fun i spec ->
        let r = { Gen.kind = (if i = 3 then Gen.Simulate else Gen.Size_fresh); spec; budget = 48; sim_seed = 1; kron = None } in
        match reply_ok ~id:(-1 - i) (round_trip c (request_json ~id:(-1 - i) ~telemetry:false r)) with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up request: " ^ e))
      warm;
    Unix.close c.fd;
    d
  in
  let setups =
    List.init setup_reps (fun rep ->
        let t0 = if rep = 0 then t_process else now () in
        let d = setup () in
        (now () -. t0, d))
  in
  let d = snd (List.nth setups (setup_reps - 1)) in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let metrics_snapshot () =
    match connect d.socket with
    | None -> failwith "metrics connection"
    | Some c ->
        let line = round_trip c {|{"id":0,"op":"metrics"}|} in
        Unix.close c.fd;
        J.member_exn "metrics" (J.parse_exn line)
  in
  let m0 = if args.trace then Some (metrics_snapshot ()) else None in
  let cpu0 = proc_cpu_s d.pid in
  let t0 = now () in
  let min_rounds = if args.trace then 2 else 1 in
  let round_len = Array.length Gen.serve_round in
  let client conn_id () =
    let reqs = Gen.serve_requests ~seed:args.seed ~conn:conn_id in
    let c = match connect d.socket with Some c -> c | None -> failwith "client connection" in
    let out = ref [] in
    let i = ref 0 in
    while now () -. t0 < args.seconds || !i mod round_len <> 0 || !i / round_len < min_rounds do
      let req = reqs !i in
      let telemetry = args.trace && !i / round_len mod 2 = 1 in
      let id = (1_000_000 * (conn_id + 1)) + !i in
      let line = request_json ~id ~telemetry req in
      let s = now () in
      let reply = round_trip c line in
      out := { conn_id; idx = !i; id; req; telemetry; rtt_ms = 1000. *. (now () -. s); reply } :: !out;
      incr i
    done;
    (* Exactly one reply per request: nothing may follow the last one. *)
    Unix.set_nonblock c.fd;
    let extra =
      Buffer.length c.pending > 0
      || match Unix.read c.fd c.chunk 0 1 with
         | n -> n > 0
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    in
    Unix.close c.fd;
    (List.rev !out, extra)
  in
  let workers = List.init 2 (fun k -> Domain.spawn (client k)) in
  let results = List.map Domain.join workers in
  let span_s = now () -. t0 in
  let cpu1 = proc_cpu_s d.pid in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let m1 = if args.trace then Some (metrics_snapshot ()) else None in
  let sent = List.concat_map fst results in
  if List.exists snd results then fail_global "a connection received a reply nobody asked for";
  Atomic.set attempted (List.length sent);
  (* Expected results, computed here with the library the daemon links:
     one cold Sizing.run per distinct (spec, budget) and one
     compare_split per kron request, on two domains. *)
  let is_size s =
    match s.req.Gen.kind with
    | Gen.Size_fresh | Gen.Size_repeat | Gen.Size_rebudget -> true
    | Gen.Simulate | Gen.Kron -> false
  in
  let distinct = Hashtbl.create 256 in
  List.iter (fun s -> if is_size s then Hashtbl.replace distinct (s.req.Gen.spec, s.req.Gen.budget) ()) sent;
  let keys = Array.of_seq (Hashtbl.to_seq_keys distinct) in
  let krons = Array.of_list (List.filter (fun s -> s.req.Gen.kind = Gen.Kron) sent) in
  let expected = Array.make (Array.length keys) None in
  let expected_kron = Array.make (Array.length krons) None in
  let verify half () =
    Array.iteri
      (fun k (spec, budget) ->
        if k mod 2 = half then begin
          let _, traffic = Result.get_ok (B.Spec_parser.parse spec) in
          let r = B.Sizing.run (size_config budget) traffic in
          expected.(k) <- Some (J.encode (B.Serve.sizing_core_json traffic r), r)
        end)
      keys;
    Array.iteri
      (fun k s ->
        if k mod 2 = half then
          let spec = Option.get s.req.Gen.kron in
          expected_kron.(k) <-
            Some (B.San_bridge.compare_split ~bridge_capacity:spec.B.Monolithic.ky spec))
      krons
  in
  let other = Domain.spawn (verify 1) in
  verify 0 ();
  Domain.join other;
  let expected_of = Hashtbl.create 256 in
  Array.iteri (fun k key -> Hashtbl.replace expected_of key (Option.get expected.(k))) keys;
  let kron_of = Hashtbl.create 64 in
  Array.iteri (fun k s -> Hashtbl.replace kron_of s.id (Option.get expected_kron.(k))) krons;
  (* Properties of the expected results themselves: the replies equal
     them, so these are properties of what the daemon answered. *)
  Hashtbl.iter
    (fun (_, budget) (_, (r : B.Sizing.result)) ->
      let randomized =
        Array.fold_left
          (fun acc (s : B.Sizing.subsystem_solution) ->
            acc + s.B.Sizing.switching.B.Mdp.Kswitching.num_randomized)
          0 r.B.Sizing.solutions
      in
      if not (B.Resilience.health_ok r.B.Sizing.health) then
        fail_global (Printf.sprintf "a budget-%d sizing is not all-Ok" budget);
      if randomized > 1 then
        fail_global (Printf.sprintf "a budget-%d sizing has %d randomized states" budget randomized))
    expected_of;
  List.iter
    (fun s ->
      let what = Printf.sprintf "serve conn %d request %d" s.conn_id s.idx in
      match reply_ok ~id:s.id s.reply with
      | Error e -> fail_op (what ^ ": " ^ e)
      | Ok r -> (
          match s.req.Gen.kind with
          | Gen.Size_fresh | Gen.Size_repeat | Gen.Size_rebudget ->
              let result = J.member_exn "result" r in
              let words =
                match J.member "allocation" result with
                | Some (J.List es) ->
                    List.fold_left
                      (fun acc e -> acc + Option.value ~default:0 (J.mem_int "words" e))
                      0 es
                | _ -> -1
              in
              let text, local = Hashtbl.find expected_of (s.req.Gen.spec, s.req.Gen.budget) in
              if J.encode result <> text then
                fail_op (what ^ ": result differs from the local Sizing.run")
              else if words <> s.req.Gen.budget then
                fail_op (Printf.sprintf "%s: allocation sums to %d, budget %d" what words s.req.Gen.budget)
              else if s.req.Gen.kind = Gen.Size_rebudget then begin
                (* More words on the same LP never predict more loss. *)
                let _, base = Hashtbl.find expected_of (s.req.Gen.spec, s.req.Gen.budget / 2) in
                if local.B.Sizing.predicted_loss_rate > base.B.Sizing.predicted_loss_rate then
                  fail_op (what ^ ": predicted loss grows with the budget")
              end
          | Gen.Simulate ->
              (* Counts restart at the warm-up, so requests in flight then
                 (or at the horizon) are delivered or lost without being
                 offered in the window, or the reverse.  At most one per
                 buffer word plus one in service per bus (<= 4 buses). *)
              let n k = Option.value ~default:nan (J.mem_number k r) in
              let in_flight = float_of_int (s.req.Gen.budget + 4) in
              if not (Float.abs (n "offered" -. n "lost" -. n "delivered") <= in_flight
                      && n "events" > 0.)
              then fail_op (Printf.sprintf "%s: simulate counts inconsistent: %s" what s.reply)
          | Gen.Kron ->
              let g = Hashtbl.find kron_of s.id in
              let j = g.B.San_bridge.joint in
              let module S = B.San_bridge in
              let same =
                J.mem_number "states" r = Some (float_of_int j.S.states)
                && J.mem_number "sweeps" r = Some (float_of_int j.S.sweeps)
                && J.member "converged" r = Some (J.Bool j.S.converged)
                && J.mem_number "residual" r = Some j.S.residual
                && J.mem_number "x_loss" r = Some j.S.x_loss
                && J.mem_number "bridge_loss" r = Some j.S.bridge_loss
                && J.mem_number "y_loss" r = Some j.S.y_loss
              in
              if not same then fail_op (what ^ ": kron reply differs from the local compare_split");
              List.iter (fun e -> fail_op (what ^ ": " ^ e)) (kron_problems g)))
    sent;
  (* The joint LP can only beat proportional per-subsystem budgets, whose
     shares sum to the joint bound: checked on the first fresh spec. *)
  (match List.find_opt (fun s -> s.req.Gen.kind = Gen.Size_fresh) sent with
  | None -> ()
  | Some s ->
      let _, traffic = Result.get_ok (B.Spec_parser.parse s.req.Gen.spec) in
      let _, joint = Hashtbl.find expected_of (s.req.Gen.spec, s.req.Gen.budget) in
      let sep =
        B.Sizing.run { (size_config s.req.Gen.budget) with B.Sizing.solver = B.Sizing.Separate } traffic
      in
      let j = joint.B.Sizing.predicted_loss_rate and p = sep.B.Sizing.predicted_loss_rate in
      if j > p *. (1. +. 1e-9) then
        fail_global (Printf.sprintf "joint loss %.9g exceeds separate loss %.9g" j p));
  (* Per-layer metrics from the telemetry of traced requests. *)
  if args.trace then begin
    let traced = List.filter (fun s -> s.telemetry) sent in
    List.iter
      (fun s ->
        match J.parse s.reply with
        | Error _ -> ()
        | Ok r ->
            let t = J.member_exn "telemetry" r in
            let f k = Option.value ~default:0. (J.mem_number k t) in
            incr traced_ops;
            let q = f "queue_ms" and sv = f "service_ms" in
            add "serve.queue_ms" q;
            add "serve.service_ms" sv;
            add "serve.overhead_ms" (s.rtt_ms -. q -. sv);
            add "op_ms" s.rtt_ms;
            add "covered_ms" (q +. sv);
            let spans =
              match J.member "spans" t with
              | Some (J.List l) ->
                  List.map
                    (fun sp ->
                      let g k = Option.value ~default:0. (J.mem_number k sp) in
                      {
                        name = Option.value ~default:"" (J.mem_string "name" sp);
                        start_ms = g "start_us" /. 1000.;
                        dur_ms = g "dur_us" /. 1000.;
                        attrs =
                          (match J.member "attrs" sp with
                          | Some (J.Obj kvs) ->
                              List.filter_map
                                (fun (k, v) -> Option.map (fun v -> (k, v)) (J.string_opt v))
                                kvs
                          | _ -> []);
                      })
                    l
              | _ -> []
            in
            ignore (add_sizing_layers spans);
            add "san.solve_ms" (window spans [ "san.stationary" ]);
            let cache k sub =
              match J.member "cache" t with
              | Some c -> (
                  match J.member k c with
                  | Some p -> Option.value ~default:0. (J.mem_number sub p)
                  | None -> 0.)
              | None -> 0.
            in
            add "cache.lp.hits" (cache "lp" "hits");
            add "cache.lp.misses" (cache "lp" "misses");
            add "cache.sizing.hits" (cache "sizing" "hits");
            add "cache.sizing.misses" (cache "sizing" "misses");
            match s.req.Gen.kron with
            | Some spec ->
                let n k = Option.value ~default:0. (J.mem_number k r) in
                add "san.state_sweeps" (n "states" *. n "sweeps");
                let t0 = now () in
                ignore (B.Monolithic.solve_split ~bridge_capacity:spec.B.Monolithic.ky spec);
                add "monolithic.split_ms" (1000. *. (now () -. t0))
            | None ->
                let t0 = now () in
                ignore (B.Spec_parser.parse s.req.Gen.spec);
                add "spec_parser.parse_ms" (1000. *. (now () -. t0)))
      traced;
    lat_traced := List.map (fun s -> s.rtt_ms) traced;
    lat_untraced := List.map (fun s -> s.rtt_ms) (List.filter (fun s -> not s.telemetry) sent);
    (* Daemon-side counters over the whole timed phase, per request. *)
    match (m0, m1) with
    | Some a, Some b ->
        let total = float_of_int (List.length sent) in
        let scale = float_of_int !traced_ops /. total in
        let path obj ks =
          List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some obj) ks
          |> Fun.flip Option.bind J.number_opt |> Option.value ~default:0.
        in
        let delta ks = path b ks -. path a ks in
        let ctr name = delta [ "counters"; name ] in
        add "lp.pivots" (scale *. (ctr "simplex.pivots" +. ctr "simplex_revised.pivots"));
        add "lp.refactorizations"
          (scale *. (ctr "simplex.refactorizations" +. ctr "simplex_revised.refactorizations"));
        add "des.events" (scale *. ctr "des.events");
        add "san.sweeps" (scale *. ctr "san.sweeps");
        add "process.cpu_ms_per_op" (scale *. 1000. *. (cpu1 -. cpu0));
        add "gc.minor_mb_per_op" (scale *. delta [ "gc"; "minor_words" ] *. 8. /. 1e6);
        add "gc.major_collections_per_op" (scale *. delta [ "gc"; "major_collections" ])
    | _ -> ()
  end;
  {
    setup_s = median (List.map fst setups);
    lat_ms = List.map (fun s -> s.rtt_ms) sent;
    span_s;
    rss_mb = rss;
  }

(* ----------------------------------------------------------- output *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let args = parse_args () in
  at_exit (fun () -> List.iter stop_daemon !live_daemons);
  let run =
    match args.workload with
    | "table1-sweep" -> table1
    | "fig3-resim" -> fig3
    | "serve-explore" -> serve
    | "bridge-kron" -> kron
    | _ -> usage ()
  in
  let t = run args in
  let metrics =
    if args.trace then finish_layers ()
    else
      [
        ("setup_s", "s", t.setup_s);
        ("op_p50_ms", "ms", median t.lat_ms);
        ("ops_per_s", "1/s", float_of_int (List.length t.lat_ms) /. t.span_s);
        ("peak_rss_mb", "MB", t.rss_mb);
      ]
  in
  Printf.printf
    "{\"fingerprint\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"recommended_domain_count\": %d, \"pool_size\": %d, \"serve_workers\": 2, \"ocaml\": %S, \
     \"commit\": %S, \"attempted\": %d, \"failed\": %d}}\n"
    args.workload args.seed args.seconds args.trace (Domain.recommended_domain_count ())
    (B.Pool.size (B.Pool.default ()))
    Sys.ocaml_version args.commit (Atomic.get attempted) (Atomic.get failed);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!global_ok && Atomic.get failed = 0)
    (Atomic.get attempted) (Atomic.get failed)
    (String.concat ", "
       (List.map
          (fun (k, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v) unit)
          metrics))
