(* Checks on the benchmark's own input generation (run by `dune runtest`):

   - the same seed gives byte-identical inputs for every workload, and
     another seed gives other inputs;
   - table1-sweep profiles never repeat a rate factor, so no two ops (nor
     the warm-up) share an LP and every LP-cache hit in the timed phase is
     one of the intended same-profile budget repeats (bench.exe also
     asserts one LP miss per op at run time);
   - serve-explore rounds have the intended mix, repeats, re-budgets and
     simulates name the fresh spec sent just before them, kron requests
     carry a spec, and every fresh spec parses, loads no bus
     past saturation and sizes through an LP under the 400-row cutoff of
     the dense engine. *)

module B = Bufsize

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let n_ops = 64

let table1 seed = List.init n_ops (Gen.table1_factors ~seed)
let fig3 seed = List.init n_ops (Gen.fig3_seeds ~seed)
let kron seed = List.init 9 (Gen.kron_specs ~seed)
let serve seed conn = List.init 30 (Gen.serve_requests ~seed ~conn)

let () =
  List.iter
    (fun seed ->
      check "table1 factors deterministic" (table1 seed = table1 seed);
      check "fig3 seeds deterministic" (fig3 seed = fig3 seed);
      check "kron specs deterministic" (kron seed = kron seed);
      check "serve requests deterministic" (serve seed 0 = serve seed 0);
      check "serve warm-up deterministic"
        (Gen.serve_warmup_specs ~seed = Gen.serve_warmup_specs ~seed);
      check "seeds differ" (table1 seed <> table1 (seed + 1) && serve seed 0 <> serve (seed + 1) 0);
      check "connections differ" (serve seed 0 <> serve seed 1);
      let factors = Gen.table1_warmup_factor ~seed :: table1 seed in
      check "table1 factors distinct"
        (List.length (List.sort_uniq compare factors) = List.length factors);
      check "table1 factors in band" (List.for_all (fun f -> f >= 0.98 && f <= 1.02) factors))
    [ 1; 2; 3; 17; 1000 ];
  (* Serve round structure and spec validity, on one seed. *)
  let reqs = serve 5 0 in
  List.iteri
    (fun i (r : Gen.serve_request) ->
      let expected = Gen.serve_round.(i mod Array.length Gen.serve_round) in
      check (Printf.sprintf "serve request %d kind" i) (r.Gen.kind = expected);
      let prev () = List.nth reqs (i - 1) in
      match r.Gen.kind with
      | Gen.Size_fresh -> ()
      | Gen.Size_repeat | Gen.Simulate ->
          check (Printf.sprintf "serve request %d names the previous spec" i)
            ((prev ()).Gen.kind = Gen.Size_fresh && (prev ()).Gen.spec = r.Gen.spec
           && (prev ()).Gen.budget = r.Gen.budget)
      | Gen.Size_rebudget ->
          check (Printf.sprintf "serve request %d re-budgets the previous spec" i)
            ((prev ()).Gen.kind = Gen.Size_fresh && (prev ()).Gen.spec = r.Gen.spec
           && r.Gen.budget = 2 * (prev ()).Gen.budget)
      | Gen.Kron ->
          check (Printf.sprintf "serve request %d is a kron solve" i)
            (match r.Gen.kron with
            | Some k -> k.B.Monolithic.kx = Gen.serve_kron_capacity
            | None -> false))
    reqs;
  (* Joint LP rows = CTMDP states over all subsystems (+1 shared row). *)
  List.iter
    (fun seed ->
      List.iter
        (fun conn ->
          List.iteri
            (fun i (r : Gen.serve_request) ->
              let what = Printf.sprintf "seed %d conn %d spec %d" seed conn i in
              if r.Gen.kind = Gen.Size_fresh then
                match B.Spec_parser.parse r.Gen.spec with
                | Error e -> check (what ^ " parses: " ^ e) false
                | Ok (topo, traffic) ->
                    let util =
                      List.init (B.Topology.num_buses topo) (B.Traffic.bus_utilization traffic)
                    in
                    check (what ^ " below saturation") (List.for_all (fun u -> u < 0.9) util);
                    let rows =
                      Array.fold_left
                        (fun acc sub ->
                          let m = B.Bus_model.build ~max_states:Gen.serve_max_states sub in
                          acc + B.Mdp.Ctmdp.num_states (B.Bus_model.ctmdp m))
                        1 (B.Splitting.split traffic).B.Splitting.subsystems
                    in
                    check (Printf.sprintf "%s LP has %d rows (< 400)" what rows) (rows < 400))
            (serve seed conn))
        [ 0; 1 ])
    [ 1; 2; 3; 13; 17 ];
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
