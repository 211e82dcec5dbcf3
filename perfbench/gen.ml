(* Seeded input generation for every workload.

   Everything a workload feeds the program is derived here from the
   [--seed] argument, through one named stream per purpose, so the same
   seed gives byte-identical spec texts, rate factors and request
   sequences, and a stream's draws never shift when another workload's
   generator changes. *)

module B = Bufsize

let stream ~seed name = Random.State.make [| 0x5eed; seed; Hashtbl.hash name |]

(* A lazy infinite sequence of draws: op [i] of a run always gets the
   [i]-th value, however many ops the run completes. *)
let nth_draws stream draw =
  let cache = ref [||] in
  let m = Mutex.create () in
  fun i ->
    Mutex.protect m (fun () ->
        while Array.length !cache <= i do
          cache := Array.append !cache [| draw stream |]
        done;
        !cache.(i))

(* ------------------------------------------------------------ table1 *)

let table1_budgets = [ 160; 320; 640 ]
let table1_max_states = 64

(* Netproc's own default rate scale; each profile multiplies it by a
   factor in [0.98, 1.02].  The band is narrow so every profile keeps the
   paper's loss regime and the LP keeps its shape (970-993 pivots over
   this band), while every factor gives different LP coefficients. *)
let netproc_rate_scale = 1.12

(* Factors lie on a 1e-6 grid of 40001 points.  Op i takes the point
   start + (i + 1) x stride and the warm-up takes the start, with a seeded
   start and a stride coprime to 40001 (= 13 x 17 x 181): no two of a
   run's profiles, warm-up included, share a factor, hence an LP. *)
let table1_grid = 40_001
let table1_stride = 7_919

let table1_factor_at k = 0.98 +. (float_of_int (k mod table1_grid) *. 1e-6)
let table1_start ~seed = Random.State.int (stream ~seed "table1") table1_grid

let table1_factors ~seed =
  let start = table1_start ~seed in
  fun i -> table1_factor_at (start + ((i + 1) * table1_stride))

let table1_warmup_factor ~seed = table1_factor_at (table1_start ~seed)

let table1_traffic factor =
  snd (B.Netproc.create ~rate_scale:(netproc_rate_scale *. factor) ())

(* -------------------------------------------------------------- fig3 *)

let fig3_budget = 160
let fig3_max_states = 64
let fig3_seeds ~seed = nth_draws (stream ~seed "fig3") (fun r -> 1 + Random.State.int r 1_000_000_000)

(* ------------------------------------------------------- serve specs *)

(* A small bridged SoC: [nb] buses in a bridged chain, [np] processors
   dealt round-robin over the buses, one flow per processor to a random
   other processor.  Flow rates are rescaled so the busiest bus runs at a
   seeded utilization in [0.55, 0.85]: loaded enough that buffers matter,
   never saturated.  Round-robin homes and the chain keep every bus at 6
   clients or fewer (at most 5 processors plus 2 bridges), hence at most
   2^6 = 64 CTMDP states, so the joint LP stays under the 400-row cutoff
   of the dense engine; one bus with 9 clients already makes a 568-row
   LP. *)
let small_spec rng (nb, np) =
  let mu = Array.init nb (fun _ -> 4. +. Random.State.float rng 4.) in
  let home = Array.init np (fun p -> p mod nb) in
  let parent = Array.init nb (fun b -> b - 1) in
  let flows =
    Array.init np (fun p ->
        let d = (p + 1 + Random.State.int rng (np - 1)) mod np in
        (p, d, 0.3 +. Random.State.float rng 0.7))
  in
  let target = 0.55 +. Random.State.float rng 0.3 in
  let text scale =
    let b = Buffer.create 512 in
    Array.iteri (fun i m -> Printf.bprintf b "bus b%d rate %.4f\n" i m) mu;
    Array.iteri (fun p h -> Printf.bprintf b "proc p%d on b%d\n" p h) home;
    Array.iteri
      (fun i par -> if par >= 0 then Printf.bprintf b "bridge br%d b%d b%d\n" i par i)
      parent;
    Array.iter
      (fun (s, d, r) -> Printf.bprintf b "flow p%d -> p%d rate %.4f\n" s d (r *. scale))
      flows;
    Buffer.contents b
  in
  let max_util t =
    let _, traffic = Result.get_ok (B.Spec_parser.parse t) in
    let buses = B.Topology.num_buses (B.Traffic.topology traffic) in
    List.fold_left
      (fun acc bus -> Float.max acc (B.Traffic.bus_utilization traffic bus))
      0. (List.init buses Fun.id)
  in
  let raw = text 1. in
  text (target /. max_util raw)

(* -------------------------------------------------------------- kron *)

(* Every op solves the un-split model at capacity 14 (kx = ky = bridge
   = 14, 3375 joint states) with seeded arrival rates and cross fraction.
   One capacity, not a spread over 9-19: a median over a mix of sizes
   rests on the few ops of the middle size, while ~40 ops of one size a
   run give a median that does not depend on the seed. *)
let kron_capacity = 14

let kron_spec rng k =
  {
    B.Monolithic.kx = k;
    ky = k;
    lambda_x = 1.45 +. Random.State.float rng 0.1;
    lambda_y = 1.15 +. Random.State.float rng 0.1;
    cross_fraction = 0.22 +. Random.State.float rng 0.06;
    mu_x = 2.4;
    mu_y = 2.2;
  }

let kron_specs ~seed = nth_draws (stream ~seed "kron") (fun rng -> kron_spec rng kron_capacity)

let kron_warmup_spec ~seed = kron_spec (stream ~seed "kron-warmup") kron_capacity

(* ------------------------------------------------------------- serve *)

type request_kind = Size_fresh | Size_repeat | Size_rebudget | Simulate | Kron

(* One round of a connection's closed loop.  Fresh sizes (60 %) dominate
   so the median latency falls in that mode.  The other four kinds, one
   each, reach the layers the fresh sizes do not:
   - [Size_repeat] re-sends the previous fresh spec and budget: a
     sizing-cache hit;
   - [Size_rebudget] re-sends it with twice the words: a sizing-cache
     miss on the same LP, so an LP-cache hit, as at the Table 1 budgets.
     The LP's occupancy bound, kappa W / (W / L) levels, does not depend
     on the budget W, but in floating point only a power-of-two factor
     leaves it bit-identical (48 and 64 words give bounds that differ in
     the last bit, hence two LPs);
   - [Simulate] runs a short uniform-allocation simulation of it (DES);
   - [Kron] solves the un-split bridge model (SAN / Kronecker sweeps) at
     capacity [serve_kron_capacity]. *)
let serve_round =
  [| Size_fresh; Size_fresh; Size_repeat; Size_fresh; Kron; Size_fresh; Simulate; Size_fresh;
     Size_rebudget; Size_fresh |]

(* Shapes (buses, processors) of the fresh specs of one round, in round
   order: every run sends the same mix of sizes over 2-4 buses and 4-10
   processors, so the median latency does not depend on which sizes the
   seed happens to favour. *)
let serve_shapes = [| (2, 4); (3, 6); (4, 8); (2, 7); (3, 10); (4, 5) |]

let serve_max_states = 64
let serve_sim_horizon = 500.

(* 10^3 joint states: a solve costs about what a fresh size does. *)
let serve_kron_capacity = 9

type serve_request = {
  kind : request_kind;
  spec : string;
  budget : int;
  sim_seed : int;
  kron : B.Monolithic.spec option;
}

(* The request sequence of client connection [conn]: an infinite seeded
   sequence of whole rounds; repeats, re-budgets and simulates name the
   fresh spec sent last on the same connection. *)
let serve_requests ~seed ~conn =
  let rng = stream ~seed (Printf.sprintf "serve-conn-%d" conn) in
  let i = ref 0 in
  let fresh = ref 0 in
  let last_fresh = ref None in
  nth_draws rng (fun rng ->
      let kind = serve_round.(!i mod Array.length serve_round) in
      incr i;
      let new_fresh () =
        let r =
          {
            kind = Size_fresh;
            spec = small_spec rng serve_shapes.(!fresh mod Array.length serve_shapes);
            budget = 16 * (2 + Random.State.int rng 5);
            sim_seed = 0;
            kron = None;
          }
        in
        incr fresh;
        last_fresh := Some r;
        r
      in
      match (kind, !last_fresh) with
      | Size_fresh, _ | (Size_repeat | Size_rebudget | Simulate), None -> new_fresh ()
      | Size_repeat, Some prev -> { prev with kind = Size_repeat }
      | Size_rebudget, Some prev -> { prev with kind = Size_rebudget; budget = 2 * prev.budget }
      | Simulate, Some prev ->
          { prev with kind = Simulate; sim_seed = 1 + Random.State.int rng 1_000_000 }
      | Kron, _ ->
          {
            kind = Kron;
            spec = "";
            budget = 0;
            sim_seed = 0;
            kron = Some (kron_spec rng serve_kron_capacity);
          })

let serve_warmup_specs ~seed =
  let rng = stream ~seed "serve-warmup" in
  List.map (small_spec rng) [ (2, 4); (3, 6); (4, 8); (3, 6) ]

