(* The Grapple pipeline (paper §2.2): frontend -> ICFET + program graphs ->
   phase 1 path-sensitive alias computation -> phase 2 path-sensitive
   dataflow computation (per FSM property) -> phase 3 FSM checking.

   [prepare] runs the frontend once per program: loop unrolling, ICFET
   construction, clone-tree planning, alias-graph generation, and the
   phase-1 engine run.  [check_property] then runs phases 2 and 3 for one
   FSM specification against the prepared state, so several checkers share
   one alias computation exactly as in the paper. *)

module Encoding = Pathenc.Encoding
module Icfet = Symexec.Icfet
module Cfet = Symexec.Cfet
module Clone_tree = Graphgen.Clone_tree
module Alias_graph = Graphgen.Alias_graph
module Dataflow_graph = Graphgen.Dataflow_graph
module Pg = Cfl.Pointer_grammar
module Dg = Cfl.Dataflow_grammar
module Transfn = Cfl.Transfn

module Alias_engine = Engine.Make (Cfl.Pointer_grammar)
module Dataflow_engine = Engine.Make (Cfl.Dataflow_grammar)

type config = {
  workdir : string;
  unroll_bound : int;
  max_instances : int;
  max_graph_edges : int;
  engine : Engine.config;
  library_throwers : (string * string * string) list;
      (* (class, method, exception) for library calls that may throw *)
  track_null : bool;
      (* materialize [null] pseudo-allocations in the alias graph so the
         null-dereference checker can track them; off by default because
         the extra sources enlarge the closure for every property *)
  prefilter_properties : Fsm.t list;
      (* the FSMs whose tracked classes the triage tiers may prune; empty
         disables pruning in both tiers *)
  summary_prefilter : bool;
      (* first triage stage: prune tracked allocations whose
         over-approximating interprocedural typestate closure
         (Analysis.Summaries) never reaches the FSM error state and never
         ends life in a non-accepting state — no report is possible, so
         they are excluded from the graphs *)
  alias_prefilter : bool;
      (* second triage stage: whole-program Andersen points-to.
         Tracked allocations whose points-to-reachable region can never
         flow into an event-bearing statement are pruned before instance
         creation (strictly beyond summaries: field-sensitive flow
         through the heap is visible here), and Assign-labeled alias-graph
         edges no allocation can cross are sliced away before phase 1 —
         both at byte-identical warnings.  Pruning needs
         [prefilter_properties]; slicing is property-independent and runs
         whenever this flag is on *)
  max_retries : int;
      (* supervisor restarts per checking instance (each restart resumes
         from the instance's last checkpoint) before the instance is
         degraded to an [Inconclusive] report *)
  instance_budget_s : float;
      (* wall-clock budget per checking instance per attempt; 0 = unlimited.
         Applied to the per-property dataflow engines only — phase 1 is
         shared preprocessing, not an instance *)
  instance_edge_budget : int;
      (* transitive-edge budget per checking instance; 0 = unlimited *)
  resume : bool;
      (* continue from the checkpoint manifests found in [workdir]
         (`grapple check --resume`); fresh sub-runs where none validate *)
  workers : int;
      (* worker domains for the phase-2/3 instance scheduler
         ([check_properties]); 1 runs the instances in the calling domain.
         Whatever the count, the scheduler produces byte-identical reports
         and counters *)
  admission_budget : int;
      (* cap on the summed size estimates ([estimate_instance] units) of
         checking instances running concurrently; 0 = unlimited.  Bounds the
         peak memory/disk footprint of a parallel run: the largest instances
         are kept from running simultaneously.  An instance is always
         admitted when nothing else is in flight, so progress never
         starves *)
  shard_procs : int;
      (* worker *processes* for the phase-2/3 instances (ISSUE 8): 0 runs
         them in-process (on [workers] domains); N > 0 forks N crash-isolated
         worker processes supervised with heartbeats and re-dispatch.
         Reports are byte-identical at every process count *)
  heartbeat_ms : float;
      (* shard-worker heartbeat period; a worker silent for
         [Supervisor.max_missed_heartbeats] periods is presumed hung *)
  max_redispatch : int;
      (* re-dispatches of a checking instance whose worker process died
         before the instance degrades to an [Inconclusive] report *)
  shard_deadline_s : float;
      (* wall deadline per instance dispatch in shard mode; 0 = none *)
  shard_kill_nth : int;
      (* deterministic fault injection: SIGKILL the worker receiving the
         Nth instance assignment of the run (0 = off) *)
  weaken_tier : string option;
      (* TEST-ONLY soundness-harness hook: deliberately break one triage
         tier so the reference-interpreter fuzzer can prove it would catch
         a tier that drops reports.  ["summary"]/["alias"] prune *every*
         tracked allocation at that tier instead of only the proven-clean
         ones; [prepare] rejects any other name with [Invalid_argument].
         [None] (the default, and the only value the CLI's check command
         can produce) changes nothing *)
}

let default_config ~workdir =
  { workdir;
    unroll_bound = 2;
    max_instances = 100_000;
    max_graph_edges = 5_000_000;
    engine = Engine.default_config ~workdir;
    library_throwers = [];
    track_null = false;
    prefilter_properties = [];
    summary_prefilter = true;
    alias_prefilter = true;
    max_retries = 3;
    instance_budget_s = 0.;
    instance_edge_budget = 0;
    resume = false;
    workers = 1;
    admission_budget = 0;
    shard_procs = 0;
    heartbeat_ms = 100.;
    max_redispatch = 3;
    shard_deadline_s = 0.;
    shard_kill_nth = 0;
    weaken_tier = None }

type timing = {
  mutable preprocess_s : float;  (* frontend + graph generation + loading *)
  mutable compute_s : float;     (* engine closures *)
  mutable check_s : float;       (* phase 3 *)
}

(* Counters maintained by the supervisor across the run.  The two [..0]
   fields snapshot process-global counters at [prepare] so [stats] can
   report per-run deltas. *)
type fault_stats = {
  mutable n_retried : int;
      (* retry events: supervisor-level instance restarts plus storage-op
         retries salvaged from failed attempts (op retries of surviving
         engines are added by [stats] from their metrics) *)
  mutable n_recovered : int;  (* instances that succeeded after >= 1 restart *)
  mutable n_inconclusive : int;  (* instances degraded past the retry limit *)
  mutable n_instance_injected : int;
      (* injected faults fired by the per-instance fault plans the parallel
         scheduler derives; the calling domain's plan never sees those ops,
         so [stats] adds this on top of its own [injected_count] delta *)
  smt_budget_hits0 : int;
  faults_injected0 : int;
}

(* Per-instance accounting: phases 2 and 3 write here instead of mutating
   [prepared] directly, so instances running on worker domains stay free of
   shared mutable state.  The scheduler merges accounts into [timing] and
   [fault_stats] in canonical instance order once every worker has joined —
   the aggregate is the same whatever the interleaving was. *)
type acct = {
  mutable a_compute_s : float;
  mutable a_check_s : float;
  mutable a_retried : int;
  mutable a_recovered : int;
  mutable a_inconclusive : int;
  mutable a_injected : int;  (* fired by this instance's derived plan *)
}

let fresh_acct () =
  { a_compute_s = 0.; a_check_s = 0.; a_retried = 0; a_recovered = 0;
    a_inconclusive = 0; a_injected = 0 }

type prepared = {
  config : config;
  program : Jir.Ast.program;   (* unrolled *)
  icfet : Icfet.t;
  callgraph : Jir.Callgraph.t;
  clones : Clone_tree.t;
  alias_graph : Alias_graph.t;
  alias_engine : Alias_engine.t;
  flows : Dataflow_graph.flows;
  n_alias_pairs : int;
  summary_pruned : int list;
      (* allocation sids the interprocedural summary pre-filter proved
         unreportable for every property tracking their class; excluded
         from the graphs outright *)
  alias_pruned : int list;
      (* allocation sids the points-to pre-filter proved unreportable
         (no event-bearing statement can observe them, and they mediate no
         heap alias chain); excluded from the graphs outright *)
  n_edges_presliced : int;
      (* alias-graph edges built before points-to slicing *)
  n_edges_sliced : int;
      (* Assign edges the points-to slicer removed before phase 1 *)
  timing : timing;
  faults : fault_stats;
  sup_reg : Obs.Registry.t;
      (* the shard supervisor's metric registry (spawns, kills,
         re-dispatches, heartbeat latency); empty in in-process runs *)
}

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := !cell +. (Unix.gettimeofday () -. t0);
  r

(* [timed] plus a trace span, so the pipeline phases show up as named
   blocks in a [--trace] timeline. *)
let timed_span name cell f =
  Obs.Trace.with_span ~cat:"pipeline" name (fun () -> timed cell f)

let merge_acct (p : prepared) (a : acct) =
  p.timing.compute_s <- p.timing.compute_s +. a.a_compute_s;
  p.timing.check_s <- p.timing.check_s +. a.a_check_s;
  p.faults.n_retried <- p.faults.n_retried + a.a_retried;
  p.faults.n_recovered <- p.faults.n_recovered + a.a_recovered;
  p.faults.n_inconclusive <- p.faults.n_inconclusive + a.a_inconclusive;
  p.faults.n_instance_injected <- p.faults.n_instance_injected + a.a_injected

(* ---------------- phase 0 + 1 ---------------- *)

(* Every allocation sid of a class some property tracks (and that an earlier
   tier has not already excluded) — the deliberately unsound "prune
   everything" set the [weaken_tier] test hook substitutes for a tier's real
   result, so the soundness harness can demonstrate it detects the lost
   reports. *)
let tracked_alloc_sids (program : Jir.Ast.program) (fsms : Fsm.t list)
    ~excluded : int list =
  let out = ref [] in
  let tracked cls = List.exists (fun f -> Fsm.is_tracked f cls) fsms in
  let alloc (s : Jir.Ast.stmt) r =
    match r with
    | Jir.Ast.Rnew (cls, _) when tracked cls ->
        if not (Hashtbl.mem excluded s.Jir.Ast.sid) then
          out := s.Jir.Ast.sid :: !out
    | _ -> ()
  in
  let rec stmt (s : Jir.Ast.stmt) =
    match s.Jir.Ast.kind with
    | Jir.Ast.Decl (_, _, Some r) | Jir.Ast.Assign (_, r) -> alloc s r
    | Jir.Ast.If (_, b1, b2) ->
        List.iter stmt b1;
        List.iter stmt b2
    | Jir.Ast.While (_, b) -> List.iter stmt b
    | Jir.Ast.Try (b, cs) ->
        List.iter stmt b;
        List.iter
          (fun (c : Jir.Ast.catch) -> List.iter stmt c.Jir.Ast.handler)
          cs
    | _ -> ()
  in
  List.iter
    (fun (m : Jir.Ast.meth) -> List.iter stmt m.Jir.Ast.body)
    (Jir.Ast.all_methods program);
  List.sort compare !out

let prepare ?(config : config option) ~workdir (program : Jir.Ast.program) :
    prepared =
  let config =
    match config with Some c -> c | None -> default_config ~workdir
  in
  let timing = { preprocess_s = 0.; compute_s = 0.; check_s = 0. } in
  let pre = ref 0. and comp = ref 0. in
  let program = timed_span "phase0.unroll" pre (fun () ->
      Jir.Unroll.unroll_program ~bound:config.unroll_bound program)
  in
  let may_throw =
    let base = Cfet.default_config program in
    let table = Hashtbl.create 16 in
    List.iter
      (fun (cls, m, e) -> Hashtbl.replace table (cls, m) e)
      config.library_throwers;
    fun (c : Jir.Ast.call) ->
      match base.Cfet.may_throw c with
      | Some e -> Some e
      | None -> Hashtbl.find_opt table (c.Jir.Ast.target_class, c.Jir.Ast.mname)
  in
  let icfet =
    timed_span "phase0.icfet" pre (fun () ->
        let base = Cfet.default_config program in
        Icfet.build ~config:{ base with Cfet.may_throw } program)
  in
  let callgraph =
    timed_span "phase0.callgraph" pre (fun () -> Jir.Callgraph.build program)
  in
  let clones =
    timed_span "phase0.clones" pre (fun () ->
        Clone_tree.build ~max_instances:config.max_instances icfet callgraph)
  in
  (match config.weaken_tier with
  | None | Some ("summary" | "alias") -> ()
  | Some t -> invalid_arg ("Pipeline.prepare: unknown weaken_tier " ^ t));
  (* allocation sids a triage tier pruned: kept out of both closures *)
  let excluded = Hashtbl.create 16 in
  (* summary-based pre-filter: an allocation is pruned only when every
     property tracking its class proves it clean — the abstraction
     over-approximates realizable event sequences, so neither closure can
     produce a report for it.  Pruned allocations need no re-check: clean
     means no report at all. *)
  let summary_pruned =
    timed_span "phase0.summary_prefilter" pre (fun () ->
        if config.summary_prefilter && config.prefilter_properties <> [] then begin
          let clean = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
          List.iter
            (fun fsm ->
              let r = Analysis.Summaries.analyze fsm program in
              let ok = Analysis.Summaries.clean_sids r in
              List.iter
                (fun (f : Analysis.Summaries.alloc_fact) ->
                  let sid = f.Analysis.Summaries.f_site.Analysis.Summaries.a_sid in
                  if List.mem sid ok then Hashtbl.replace clean sid ()
                  else Hashtbl.replace dirty sid ())
                r.Analysis.Summaries.facts)
            config.prefilter_properties;
          Hashtbl.fold
            (fun sid () acc ->
              if Hashtbl.mem dirty sid then acc else sid :: acc)
            clean []
          |> List.sort compare
        end
        else [])
  in
  (* weakened-summary hook: pretend the tier proved everything clean *)
  let summary_pruned =
    if config.weaken_tier = Some "summary" then
      tracked_alloc_sids program config.prefilter_properties ~excluded
    else summary_pruned
  in
  List.iter (fun sid -> Hashtbl.replace excluded sid ()) summary_pruned;
  (* points-to pre-filter (ISSUE 7): whole-program Andersen analysis over
     the unrolled program.  Its points-to sets over-approximate the CFL
     flowsTo relation the engine computes, so an allocation whose entire
     reachable event alphabet keeps every tracking property accepting can
     never yield a report — pruned outright, like the summary tier.  The
     same analysis drives the closure-graph slicer below, which is
     property-independent, so the solver runs whenever the flag is on. *)
  let pointsto, alias_pruned =
    timed_span "phase0.alias_prefilter" pre (fun () ->
        if not config.alias_prefilter then (None, [])
        else
          let pt =
            Analysis.Pointsto.analyze ~track_null:config.track_null program
          in
          let pruned =
            if config.prefilter_properties = [] then []
            else
              Analysis.Pointsto.prunable_sids pt
                ~fsms:config.prefilter_properties
              |> List.filter (fun sid -> not (Hashtbl.mem excluded sid))
          in
          (Some pt, pruned))
  in
  (* weakened-alias hook: prune every tracked allocation still in play *)
  let alias_pruned =
    if config.weaken_tier = Some "alias" then
      tracked_alloc_sids program config.prefilter_properties ~excluded
    else alias_pruned
  in
  List.iter (fun sid -> Hashtbl.replace excluded sid ()) alias_pruned;
  let alias_graph =
    timed_span "phase0.alias_graph" pre (fun () ->
        Alias_graph.build ~max_edges:config.max_graph_edges
          ~track_null:config.track_null ~exclude:(Hashtbl.mem excluded) icfet
          clones)
  in
  (* closure-graph slicing (ISSUE 7): drop Assign edges whose source
     variable has an empty points-to set — no allocation can cross them in
     any flowsTo derivation, so the phase-1 closure is unchanged while the
     engine sees fewer seed edges. *)
  let n_edges_presliced = Alias_graph.n_edges alias_graph in
  let n_edges_sliced =
    timed_span "phase0.alias_slice" pre (fun () ->
        match pointsto with
        | None -> 0
        | Some pt ->
            (* vertex [meth] fields are dense icfet indices; resolve them
               to qualified method ids once *)
            let meth_ids =
              Array.init (Icfet.n_methods icfet) (fun i ->
                  Jir.Ast.meth_id (Icfet.cfet icfet i).Cfet.meth)
            in
            Alias_graph.slice_assign_edges alias_graph
              ~reaches:(fun ~meth ~var ->
                Analysis.Pointsto.nonempty pt ~meth_id:meth_ids.(meth) ~var))
  in
  let faults =
    { n_retried = 0; n_recovered = 0; n_inconclusive = 0;
      n_instance_injected = 0;
      smt_budget_hits0 = Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits;
      faults_injected0 = Engine.Faults.injected_count () }
  in
  let alias_workdir = Filename.concat config.workdir "alias" in
  let engine_config = { config.engine with Engine.workdir = alias_workdir } in
  let mk_alias_engine () =
    let e =
      Alias_engine.create ~config:engine_config
        ~decode:(fun enc -> Icfet.constraint_of icfet enc)
        ~workdir:alias_workdir ()
    in
    timed_span "phase1.seed" pre (fun () ->
        Alias_graph.iter_edges alias_graph (fun edge ->
            Alias_engine.add_seed e ~src:edge.Alias_graph.src
              ~dst:edge.Alias_graph.dst ~label:edge.Alias_graph.label
              ~enc:edge.Alias_graph.enc));
    e
  in
  (* The shared phase-1 computation is supervised like a checking instance —
     retried with backoff, each retry resuming from the engine's last
     checkpoint — except that failure past the retry limit propagates:
     without alias facts there is no instance left to degrade.  Collecting
     the flowsTo facts is part of the attempt (it re-reads the partitions,
     so it can hit the same faults as the run). *)
  let rec run_alias attempt =
    let e = mk_alias_engine () in
    match
      timed_span "phase1.alias_closure" comp (fun () ->
          Alias_engine.run ~resume:(config.resume || attempt > 0) e);
      (* collect flowsTo facts rooted at allocation sites: the in-memory
         alias results phase 2 queries (§2.2) *)
      let flows : Dataflow_graph.flows = Hashtbl.create 1024 in
      let n_alias_pairs = ref 0 in
      timed_span "phase1.collect_flows" comp (fun () ->
          Alias_engine.iter_result_edges e (fun edge ->
              match edge.Alias_engine.label with
              | Pg.Flows_to -> (
                  match Alias_graph.info alias_graph edge.Alias_engine.src with
                  | Alias_graph.Obj_vertex _ ->
                      incr n_alias_pairs;
                      let cur =
                        Option.value ~default:[]
                          (Hashtbl.find_opt flows edge.Alias_engine.src)
                      in
                      Hashtbl.replace flows edge.Alias_engine.src
                        ((edge.Alias_engine.dst, edge.Alias_engine.enc) :: cur)
                  | Alias_graph.Var_vertex _ -> ())
              | _ -> ()));
      (flows, !n_alias_pairs)
    with
    | flows, n_alias_pairs ->
        if attempt > 0 then faults.n_recovered <- faults.n_recovered + 1;
        (e, flows, n_alias_pairs)
    | exception ((Engine.Faults.Injected _ | Sys_error _
                 | Engine.Budget_exhausted _) as exn) ->
        (* keep the failed attempt's op-retry count in the run totals *)
        faults.n_retried <-
          faults.n_retried
          + Engine.Metrics.count (Alias_engine.metrics e).Engine.Metrics.retries;
        if attempt >= config.max_retries then raise exn
        else begin
          faults.n_retried <- faults.n_retried + 1;
          Unix.sleepf
            (Engine.backoff_delay_s ~seed:config.engine.Engine.retry_seed
               ~base_ms:config.engine.Engine.retry_base_ms ~attempt);
          run_alias (attempt + 1)
        end
  in
  let alias_engine, flows, n_alias_pairs = run_alias 0 in
  timing.preprocess_s <- !pre;
  timing.compute_s <- !comp;
  { config; program; icfet; callgraph; clones; alias_graph; alias_engine;
    flows; n_alias_pairs; summary_pruned; alias_pruned;
    n_edges_presliced; n_edges_sliced; timing; faults;
    sup_reg = Obs.Registry.create () }

(* ---------------- phases 2 and 3 for one property ---------------- *)

(* What a shard worker reports about its instance in place of live engine
   state (which cannot cross the process boundary): the scalar totals
   [stats] needs plus the engine's full metric registry — plain data, so
   the whole record marshals. *)
type shard_summary = {
  sm_vertices : int;     (* dataflow-graph vertices *)
  sm_seed_edges : int;
  sm_total_edges : int;  (* exact, counted by the worker before exit *)
  sm_partitions : int;
  sm_metrics : Obs.Registry.t;
}

type property_result = {
  fsm : Fsm.t;
  reports : Report.t list;
  degraded : string option;
      (* [Some reason] when the supervisor gave up on this instance; its
         only report is the matching [Inconclusive] entry *)
  dataflow_engine : Dataflow_engine.t option;  (* [None] when degraded *)
  dataflow_graph : Dataflow_graph.t option;
  summary : shard_summary option;
      (* present when the instance ran in a shard worker process *)
}

let context_strings (p : prepared) inst =
  let rec go inst acc =
    let i = Clone_tree.instance p.clones inst in
    let meth_id =
      Jir.Ast.meth_id (Icfet.cfet p.icfet i.Clone_tree.meth).Cfet.meth
    in
    match i.Clone_tree.parent with
    | None -> meth_id :: acc
    | Some (caller, _) -> go caller (meth_id :: acc)
  in
  go inst []

(* A human-relevant witness: keep entry/method parameters (symbols of the
   form Method::param with no statement suffix and no generated marker) and
   order them by name. *)
let witness_of_constraint (f : Smt.Formula.t) : (string * int) list =
  match Smt.Solver.check_with_model f with
  | Smt.Solver.Model_sat (Some model) ->
      model
      |> List.filter_map (fun (sym, v) ->
             let name = Smt.Symbol.name sym in
             if
               String.length name > 0
               && (not (String.contains name '@'))
               && (not (String.contains name '$'))
             then Some (name, v)
             else None)
      |> List.sort_uniq compare
  | Smt.Solver.Model_sat None | Smt.Solver.Model_unsat
  | Smt.Solver.Model_unknown ->
      []

(* The degraded stand-in for an instance the supervisor gave up on: one
   [Inconclusive] report so the gap in coverage is visible in the output,
   no engine state. *)
let inconclusive_result (fsm : Fsm.t) (reason : string) : property_result =
  { fsm;
    reports =
      [ { Report.checker = fsm.Fsm.name;
          kind = Report.Inconclusive reason;
          cls = "";
          alloc_at = { Jir.Ast.file = "<" ^ fsm.Fsm.name ^ ">"; line = 0 };
          site = None;
          context = [];
          witness = [];
          trace = [] } ];
    degraded = Some reason;
    dataflow_engine = None;
    dataflow_graph = None;
    summary = None }

(* Best-effort removal of a degraded instance's partition files: nothing
   will resume from them, and the workdir may be long-lived. *)
let sweep_instance_workdir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

(* Per-instance engine configuration: the pipeline-level budgets override
   the engine defaults when set. *)
let instance_engine_config (config : config) ~workdir : Engine.config =
  { config.engine with
    Engine.workdir;
    edge_budget =
      (if config.instance_edge_budget > 0 then config.instance_edge_budget
       else config.engine.Engine.edge_budget);
    wall_budget_s =
      (if config.instance_budget_s > 0. then config.instance_budget_s
       else config.engine.Engine.wall_budget_s) }

(* One attempt at phases 2 and 3 for one property; raises on storage faults
   that survived the engine's op-level retries and on budget exhaustion.
   All accounting goes to [acct] — never to [p] — so the attempt can run on
   a worker domain without sharing mutable state with its siblings. *)
let attempt_property (p : prepared) (fsm : Fsm.t) ~(acct : acct) ~resume :
    property_result =
  let comp = ref 0. and chk = ref 0. in
  let dg =
    timed_span "phase2.dataflow_graph" comp (fun () ->
        Dataflow_graph.build p.icfet p.clones p.alias_graph p.flows fsm)
  in
  let workdir = Filename.concat p.config.workdir ("df-" ^ fsm.Fsm.name) in
  let engine_config = instance_engine_config p.config ~workdir in
  let engine =
    Dataflow_engine.create ~config:engine_config
      ~decode:(fun enc -> Icfet.constraint_of p.icfet enc)
      ~workdir ()
  in
  List.iter
    (fun (s : Dataflow_graph.seed) ->
      Dataflow_engine.add_seed engine ~src:s.Dataflow_graph.src
        ~dst:s.Dataflow_graph.dst ~label:s.Dataflow_graph.label
        ~enc:s.Dataflow_graph.enc)
    (Dataflow_graph.seeds dg);
  (try
     timed_span "phase2.dataflow_closure" comp (fun () ->
         Dataflow_engine.run ~resume engine)
   with exn ->
     (* keep the failed attempt's op-retry count in the run totals *)
     acct.a_retried <-
       acct.a_retried
       + Engine.Metrics.count
           (Dataflow_engine.metrics engine).Engine.Metrics.retries;
     raise exn);
  (* phase 3: interpret Track edges against the FSM *)
  let registry = Dataflow_graph.registry dg in
  let by_source = Hashtbl.create 64 in
  List.iter
    (fun (tr : Dataflow_graph.tracked) ->
      Hashtbl.replace by_source tr.Dataflow_graph.source_vertex tr)
    (Dataflow_graph.tracked dg);
  let reports = ref [] in
  timed_span "phase3.fsm_check" chk (fun () ->
      Dataflow_engine.iter_result_edges engine (fun e ->
          match
            (e.Dataflow_engine.label, Hashtbl.find_opt by_source e.Dataflow_engine.src)
          with
          | Dg.Track f, Some tr ->
              let state = Transfn.apply registry f fsm.Fsm.initial in
              let mk kind site =
                { Report.checker = fsm.Fsm.name;
                  kind;
                  cls = tr.Dataflow_graph.cls;
                  alloc_at = tr.Dataflow_graph.at;
                  site;
                  context = context_strings p tr.Dataflow_graph.alloc_inst;
                  witness =
                    witness_of_constraint
                      (Icfet.constraint_of p.icfet e.Dataflow_engine.enc);
                  trace = Icfet.trace_of p.icfet e.Dataflow_engine.enc }
              in
              if state = fsm.Fsm.error then begin
                let site =
                  Option.map
                    (fun (s : Jir.Ast.stmt) -> s.Jir.Ast.at)
                    (Dataflow_graph.event_site dg e.Dataflow_engine.dst)
                in
                reports :=
                  mk
                    (Report.Error_state
                       (Fsm.describe_state fsm state ~cls:tr.Dataflow_graph.cls))
                    site
                  :: !reports
              end
              else begin
                (* leaks are reported at normal program exits only: paths
                   that die from an uncaught exception terminate the
                   process, which reclaims the resource *)
                match Dataflow_graph.exit_kind dg e.Dataflow_engine.dst with
                | Some Dataflow_graph.Exit_normal
                  when not (Fsm.is_accepting fsm state) ->
                    reports :=
                      mk
                        (Report.Leak
                           (Fsm.describe_state fsm state
                              ~cls:tr.Dataflow_graph.cls))
                        None
                      :: !reports
                | _ -> ()
              end
          | _ -> ()));
  acct.a_compute_s <- acct.a_compute_s +. !comp;
  acct.a_check_s <- acct.a_check_s +. !chk;
  { fsm; reports = Report.dedup (List.rev !reports); degraded = None;
    dataflow_engine = Some engine; dataflow_graph = Some dg; summary = None }

(* Phases 2 and 3 for one property, supervised: on a storage fault that
   outlived the engine's own op-level retries, or on budget exhaustion, the
   instance is restarted with deterministic exponential backoff — resuming
   from its last checkpoint, so each attempt makes net progress — up to
   [max_retries] times, after which it degrades to an [Inconclusive] report
   instead of aborting the run.  Simulated crashes ([Faults.Crash]) are
   deliberately not caught. *)
let supervise ?(resume_first = false) (p : prepared) (fsm : Fsm.t)
    ~(acct : acct) : property_result =
  (* [resume_first]: the very first attempt already resumes from the
     instance's checkpoint manifest — a shard worker re-dispatched after its
     predecessor died continues that predecessor's work *)
  let rec go attempt =
    match
      attempt_property p fsm ~acct
        ~resume:(p.config.resume || resume_first || attempt > 0)
    with
    | r ->
        if attempt > 0 then acct.a_recovered <- acct.a_recovered + 1;
        r
    | exception ((Engine.Faults.Injected _ | Sys_error _
                 | Engine.Budget_exhausted _) as exn) ->
        let reason =
          match exn with
          | Engine.Faults.Injected r | Sys_error r -> r
          | Engine.Budget_exhausted r -> r
          | _ -> Printexc.to_string exn
        in
        if attempt < p.config.max_retries then begin
          acct.a_retried <- acct.a_retried + 1;
          Unix.sleepf
            (Engine.backoff_delay_s ~seed:p.config.engine.Engine.retry_seed
               ~base_ms:p.config.engine.Engine.retry_base_ms ~attempt);
          go (attempt + 1)
        end
        else begin
          acct.a_inconclusive <- acct.a_inconclusive + 1;
          sweep_instance_workdir
            (Filename.concat p.config.workdir ("df-" ^ fsm.Fsm.name));
          inconclusive_result fsm reason
        end
  in
  go 0

let check_property (p : prepared) (fsm : Fsm.t) : property_result =
  let acct = fresh_acct () in
  let r = supervise p fsm ~acct in
  merge_acct p acct;
  r

(* ---------------- parallel instance scheduler (ISSUE 4) ----------------

   Phases 2 and 3 are independent across properties: each checking instance
   owns its private workdir ([df-<name>]), engine, metrics, and retry
   state, and only reads the shared phase-0/1 results.  The scheduler runs
   one run's instances on a fixed pool of worker domains:

   - instances are queued largest-estimated-first so the long poles start
     as early as possible;
   - an optional admission budget bounds the summed estimates in flight,
     keeping the biggest instances from peaking together;
   - when a fault plan is installed, each instance runs under a plan
     *derived* from it, salted with the instance's stable identity: its
     fault stream depends only on its own operation history, never on how
     instances interleave across workers;
   - per-instance accounting is merged in canonical (input) order after
     every worker has joined.

   Reports, fault counters, and statistics are therefore byte-identical at
   every worker count, and a crashed parallel run's checkpoints can be
   resumed by a run with any other worker count.  Simulated crashes
   ([Faults.Crash]) behave like a process kill: the pool stops pulling
   work and the crash is re-raised once all workers have joined, with
   nothing of the in-memory run surviving — exactly what [--resume] is
   for. *)

type schedule_entry = {
  s_instance : string;  (* the FSM / checker name *)
  s_worker : int;       (* worker slot that ran it *)
  s_estimate : int;     (* size estimate that ordered the queue *)
  s_wall_s : float;     (* wall-clock of the instance on its worker *)
}

(* Cheap deterministic proxy for an instance's phase-2/3 size: its tracked
   allocation vertices weighted by their alias fan-out — approximately the
   dataflow seeds the instance will feed its engine. *)
let estimate_instance (p : prepared) (fsm : Fsm.t) : int =
  let n = ref 0 in
  for v = 0 to Alias_graph.n_vertices p.alias_graph - 1 do
    match Alias_graph.info p.alias_graph v with
    | Alias_graph.Obj_vertex { cls; _ } when Fsm.is_tracked fsm cls ->
        let fanout =
          match Hashtbl.find_opt p.flows v with
          | Some l -> List.length l
          | None -> 0
        in
        n := !n + 1 + fanout
    | _ -> ()
  done;
  !n

(* Largest first; ties broken by name so the order is deterministic. *)
let order_items (p : prepared) (fsms : Fsm.t list) =
  List.mapi (fun idx fsm -> (idx, fsm, estimate_instance p fsm)) fsms
  |> List.sort (fun (_, f1, e1) (_, f2, e2) ->
         match compare e2 e1 with
         | 0 -> compare f1.Fsm.name f2.Fsm.name
         | c -> c)

let check_properties_domains ?workers (p : prepared) (fsms : Fsm.t list) :
    property_result list * schedule_entry list =
  let workers =
    match workers with Some w -> max 1 w | None -> max 1 p.config.workers
  in
  let n = List.length fsms in
  if n = 0 then ([], [])
  else begin
    let queue = ref (order_items p fsms) in
    let mu = Mutex.create () in
    let cond = Condition.create () in
    let in_flight = ref 0 in
    let stop = Atomic.make false in
    let results : property_result option array = Array.make n None in
    let accts : acct option array = Array.make n None in
    let entries : schedule_entry option array = Array.make n None in
    let failure : exn option Atomic.t = Atomic.make None in
    let budget = p.config.admission_budget in
    let pop () =
      Mutex.lock mu;
      let rec go () =
        if Atomic.get stop || !queue = [] then None
        else
          let fits (_, _, est) =
            budget <= 0 || !in_flight = 0 || !in_flight + est <= budget
          in
          match List.find_opt fits !queue with
          | Some ((_, _, est) as item) ->
              queue := List.filter (fun x -> x != item) !queue;
              in_flight := !in_flight + est;
              Some item
          | None ->
              (* everything queued is over the admission budget right now:
                 wait for a running instance to finish and retry *)
              Condition.wait cond mu;
              go ()
      in
      let r = go () in
      Mutex.unlock mu;
      r
    in
    let finished est =
      Mutex.lock mu;
      in_flight := !in_flight - est;
      Condition.broadcast cond;
      Mutex.unlock mu
    in
    (* the base plan is captured in the calling domain; each instance runs
       under a derived stream keyed to its own worker-independent identity *)
    let base_plan = Engine.Faults.current () in
    let run_instance ~slot (idx, fsm, est) =
      Obs.Trace.with_span ~cat:"scheduler"
        ~args:[ ("instance", Obs.Trace.Str fsm.Fsm.name);
                ("worker", Obs.Trace.Int slot);
                ("estimate", Obs.Trace.Int est) ]
        "scheduler.instance"
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let acct = fresh_acct () in
      let saved = Engine.Faults.current () in
      let plan =
        Option.map
          (fun b ->
            Engine.Faults.derive b
              ~salt:(Engine.Faults.salt_of_string fsm.Fsm.name))
          base_plan
      in
      (match plan with
      | Some pl -> Engine.Faults.install pl
      | None -> Engine.Faults.clear ());
      Engine.Faults.set_scope (Some ("df-" ^ fsm.Fsm.name));
      Fun.protect
        ~finally:(fun () ->
          Engine.Faults.set_scope None;
          match saved with
          | Some pl -> Engine.Faults.install pl
          | None -> Engine.Faults.clear ())
        (fun () ->
          let r = supervise p fsm ~acct in
          (match plan with
          | Some pl -> acct.a_injected <- pl.Engine.Faults.n_injected
          | None -> ());
          results.(idx) <- Some r;
          accts.(idx) <- Some acct;
          entries.(idx) <-
            Some
              { s_instance = fsm.Fsm.name; s_worker = slot; s_estimate = est;
                s_wall_s = Unix.gettimeofday () -. t0 })
    in
    let worker slot =
      let rec loop () =
        match pop () with
        | None -> ()
        | Some ((_, _, est) as item) -> (
            match run_instance ~slot item with
            | () ->
                finished est;
                loop ()
            | exception exn ->
                (* a simulated crash (or unexpected error) kills the run:
                   record the first, stop the pool, wake any waiters *)
                ignore (Atomic.compare_and_set failure None (Some exn));
                Atomic.set stop true;
                finished est)
      in
      loop ()
    in
    let pool = min workers n in
    if pool <= 1 then worker 0
    else begin
      (* the pool takes priority over the engines' own solver fan-out:
         reserving a slot per worker makes [solve_batch] inside the workers
         degrade to sequential solving instead of oversubscribing the
         machine W×S ways *)
      Engine.Domains.reserve pool;
      Fun.protect
        ~finally:(fun () -> Engine.Domains.release pool)
        (fun () ->
          List.init pool (fun slot ->
              Engine.Domains.spawn (fun () -> worker slot))
          |> List.iter Domain.join)
    end;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    (* merge the per-instance accounts in canonical order: float additions
       happen in the same sequence at every worker count *)
    for idx = 0 to n - 1 do
      match accts.(idx) with
      | Some a -> merge_acct p a
      | None -> assert false
    done;
    ( List.init n (fun idx -> Option.get results.(idx)),
      List.init n (fun idx -> Option.get entries.(idx)) )
  end

(* ---------------- supervised multi-process shard runtime (ISSUE 8) ----

   The same instances, scheduled largest-estimated-first like the domain
   pool, but each dispatch runs in a forked worker *process*: an instance
   that OOMs, segfaults, or wedges takes down only its worker.  The
   [Engine.Supervisor] kills and replaces dead/hung workers and re-dispatches
   their in-flight instance, which resumes from the instance's checkpoint
   manifest ([supervise ~resume_first]); past [max_redispatch] losses the
   instance degrades to [Inconclusive], the same contract as budget
   exhaustion.  Each dispatch attempt re-derives the instance's fault plan
   from scratch (fresh counters, same salt), so its fault stream depends
   only on its own operation history — reports are byte-identical at any
   process count and any crash schedule.  Results return as marshalled
   [shard_account] frames and are merged in canonical instance order. *)

(* The frame a worker sends back for one completed instance. *)
type shard_account = {
  sa_reports : Report.t list;
  sa_degraded : string option;
  sa_acct : acct;
  sa_summary : shard_summary option;
}

(* Runs inside the forked worker: one supervised instance attempt chain,
   ending with the engine-state summary (computed while the engine is still
   alive — it dies with the process). *)
let run_shard_instance (p : prepared) (fsm : Fsm.t) ~base_plan ~attempt :
    string =
  let acct = fresh_acct () in
  let plan =
    Option.map
      (fun b ->
        Engine.Faults.derive b
          ~salt:(Engine.Faults.salt_of_string fsm.Fsm.name))
      base_plan
  in
  (match plan with
  | Some pl -> Engine.Faults.install pl
  | None -> Engine.Faults.clear ());
  Engine.Faults.set_scope (Some ("df-" ^ fsm.Fsm.name));
  let r = supervise ~resume_first:(attempt > 0) p fsm ~acct in
  (match plan with
  | Some pl -> acct.a_injected <- pl.Engine.Faults.n_injected
  | None -> ());
  (* the summary's partition reload must not fault: the plan has done its
     deterministic work for this instance by now *)
  Engine.Faults.set_scope None;
  Engine.Faults.clear ();
  let summary =
    match r.dataflow_engine with
    | None -> None
    | Some e ->
        (* [total_edges] first: it reloads partitions, matching the order
           the in-process [stats] path reads them in *)
        let total = Dataflow_engine.total_edges e in
        let m = Dataflow_engine.metrics e in
        Some
          { sm_vertices =
              Option.fold ~none:0 ~some:Dataflow_graph.n_vertices
                r.dataflow_graph;
            sm_seed_edges = Dataflow_engine.n_seed_edges e;
            sm_total_edges = total;
            sm_partitions = Dataflow_engine.n_partitions e;
            sm_metrics = Engine.Metrics.registry m }
  in
  Marshal.to_string
    { sa_reports = r.reports; sa_degraded = r.degraded; sa_acct = acct;
      sa_summary = summary }
    []

let check_properties_shard (p : prepared) (fsms : Fsm.t list) :
    property_result list * schedule_entry list =
  let n = List.length fsms in
  if n = 0 then ([], [])
  else begin
    let order = Array.of_list (order_items p fsms) in
    (* captured before the fork: every worker derives from the same base *)
    let base_plan = Engine.Faults.current () in
    let sup_config =
      { Engine.Supervisor.default_config with
        Engine.Supervisor.procs = p.config.shard_procs;
        heartbeat_ms = p.config.heartbeat_ms;
        deadline_s = p.config.shard_deadline_s;
        max_redispatch = p.config.max_redispatch;
        retry_seed = p.config.engine.Engine.retry_seed;
        retry_base_ms = p.config.engine.Engine.retry_base_ms;
        kill_nth = p.config.shard_kill_nth }
    in
    let tasks = Array.map (fun (_, f, _) -> f.Fsm.name) order in
    let run_task ~task ~attempt =
      let _, fsm, _ = order.(task) in
      run_shard_instance p fsm ~base_plan ~attempt
    in
    let outcomes =
      Obs.Trace.with_span ~cat:"scheduler"
        ~args:[ ("procs", Obs.Trace.Int p.config.shard_procs);
                ("instances", Obs.Trace.Int n) ]
        "scheduler.shard"
        (fun () ->
          Engine.Supervisor.run ~reg:p.sup_reg ~config:sup_config ~tasks
            ~run_task ())
    in
    let results : property_result option array = Array.make n None in
    let accts : acct option array = Array.make n None in
    let entries : schedule_entry option array = Array.make n None in
    Array.iteri
      (fun k outcome ->
        let idx, fsm, est = order.(k) in
        match outcome with
        | Engine.Supervisor.Completed { payload; slot; wall_s } ->
            let (sa : shard_account) = Marshal.from_string payload 0 in
            results.(idx) <-
              Some
                { fsm; reports = sa.sa_reports; degraded = sa.sa_degraded;
                  dataflow_engine = None; dataflow_graph = None;
                  summary = sa.sa_summary };
            accts.(idx) <- Some sa.sa_acct;
            entries.(idx) <-
              Some
                { s_instance = fsm.Fsm.name; s_worker = slot;
                  s_estimate = est; s_wall_s = wall_s }
        | Engine.Supervisor.Degraded reason ->
            (* the instance lost [max_redispatch + 1] worker processes in a
               row: degrade it exactly like budget exhaustion would *)
            sweep_instance_workdir
              (Filename.concat p.config.workdir ("df-" ^ fsm.Fsm.name));
            let acct = fresh_acct () in
            acct.a_inconclusive <- 1;
            results.(idx) <- Some (inconclusive_result fsm reason);
            accts.(idx) <- Some acct;
            entries.(idx) <-
              Some
                { s_instance = fsm.Fsm.name; s_worker = -1; s_estimate = est;
                  s_wall_s = 0. })
      outcomes;
    (* canonical-order merge, as in the domain scheduler: the aggregate is
       independent of which worker ran what and of any crash schedule *)
    for idx = 0 to n - 1 do
      match accts.(idx) with
      | Some a -> merge_acct p a
      | None -> assert false
    done;
    ( List.init n (fun idx -> Option.get results.(idx)),
      List.init n (fun idx -> Option.get entries.(idx)) )
  end

let check_properties ?workers (p : prepared) (fsms : Fsm.t list) :
    property_result list * schedule_entry list =
  if p.config.shard_procs > 0 then check_properties_shard p fsms
  else check_properties_domains ?workers p fsms

(* ---------------- aggregate statistics (Tables 3-5, Figure 9) -------- *)

type stats = {
  n_vertices : int;
  n_edges_before : int;
  n_edges_after : int;
  preprocess_s : float;
  compute_s : float;
  total_s : float;
  n_partitions : int;
  n_iterations : int;
  n_constraints_solved : int;
  cache_enabled : bool;
  cache_lookups : int;
  cache_hits : int;
  solve_s : float;
  bytes_read : int;    (* partition bytes read across all engines *)
  bytes_written : int; (* partition bytes written across all engines *)
  breakdown : (string * float) list;
  n_prefiltered : int;
      (* always 0: the escape tier that resolved allocations without the
         engine is gone; the field stays until the benchmark driver stops
         reading it *)
  n_summary_pruned : int;
      (* tracked allocations the interprocedural summary stage dropped *)
  n_alias_pruned : int;
      (* tracked allocations the points-to stage dropped *)
  n_edges_presliced : int;
      (* alias-graph edges built before points-to slicing *)
  n_edges_sliced : int;  (* Assign edges the points-to slicer removed *)
  edges_added : int;  (* transitive edges derived across all engines *)
  n_retried : int;
      (* retry events: storage-op retries plus supervisor instance restarts *)
  n_recovered : int;     (* instances that succeeded after a restart *)
  n_inconclusive : int;  (* instances degraded to [Inconclusive] *)
  n_smt_budget_hits : int;
      (* DPLL(T) budget cuts (answered Unknown => assumed feasible) *)
  n_faults_injected : int;  (* injected faults fired during this run *)
  n_corrupt_recovered : int;
      (* partition reads that recovered a valid prefix from damage *)
  registry : Obs.Registry.t;
      (* the run's full merged metric registry (engine counters/timers/
         histograms plus pipeline- and solver-level entries), for
         [--metrics-json] and programmatic consumers *)
}

(* Registry-level merge: every metric each engine registered — counters,
   timers, histograms, including ones this module never heard of — is
   summed, in canonical order (the earlier field-by-field version silently
   dropped [edges_considered]; a name-driven merge cannot lose fields). *)
let combine_metrics (ms : Engine.Metrics.t list) : Engine.Metrics.t =
  let out = Engine.Metrics.create () in
  List.iter (fun m -> Engine.Metrics.merge ~into:out m) ms;
  out

let stats (p : prepared) (props : property_result list) : stats =
  let alias_m = Alias_engine.metrics p.alias_engine in
  (* instances that ran in a shard worker carry no live engine/graph; their
     totals and metric registry come from the worker's [shard_summary] *)
  let df_ms =
    List.filter_map
      (fun pr ->
        match pr.dataflow_engine with
        | Some e -> Some (Dataflow_engine.metrics e)
        | None ->
            Option.map
              (fun s -> Engine.Metrics.of_registry s.sm_metrics)
              pr.summary)
      props
  in
  let sum f = List.fold_left (fun acc pr -> acc + f pr) 0 props in
  let sum_engines f g =
    sum (fun pr ->
        match (pr.dataflow_engine, pr.summary) with
        | Some e, _ -> f e
        | None, Some s -> g s
        | None, None -> 0)
  in
  let n_vertices =
    Alias_graph.n_vertices p.alias_graph
    + sum (fun pr ->
          match (pr.dataflow_graph, pr.summary) with
          | Some dg, _ -> Dataflow_graph.n_vertices dg
          | None, Some s -> s.sm_vertices
          | None, None -> 0)
  in
  let n_edges_before =
    Alias_engine.n_seed_edges p.alias_engine
    + sum_engines Dataflow_engine.n_seed_edges (fun s -> s.sm_seed_edges)
  in
  let n_edges_after =
    Alias_engine.total_edges p.alias_engine
    + sum_engines Dataflow_engine.total_edges (fun s -> s.sm_total_edges)
  in
  let n_partitions =
    Alias_engine.n_partitions p.alias_engine
    + sum_engines Dataflow_engine.n_partitions (fun s -> s.sm_partitions)
  in
  (* combined last: [total_edges] above reloads partitions, and under an
     active fault plan those loads can themselves be retried — summing the
     metrics afterwards keeps such retries visible in [n_retried] *)
  let m = combine_metrics (alias_m :: df_ms) in
  let count c = Engine.Metrics.count c in
  let n_retried = p.faults.n_retried + count m.Engine.Metrics.retries in
  let n_smt_budget_hits =
    max 0
      (Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits
      - p.faults.smt_budget_hits0)
  in
  let n_faults_injected =
    max 0 (Engine.Faults.injected_count () - p.faults.faults_injected0)
    + p.faults.n_instance_injected
  in
  (* enrich the merged registry with the pipeline- and solver-level numbers
     so [--metrics-json] is one self-contained document *)
  let reg = Engine.Metrics.registry m in
  (* fold in the shard supervisor's counters (spawns/kills/re-dispatches,
     heartbeat histogram); empty when the run was in-process *)
  Obs.Registry.merge ~into:reg p.sup_reg;
  let set_g name v = Obs.Registry.gauge_set (Obs.Registry.gauge reg name) v in
  let set_c name v = Obs.Registry.set (Obs.Registry.counter reg name) v in
  set_g "pipeline.preprocess_s" p.timing.preprocess_s;
  set_g "pipeline.compute_s" p.timing.compute_s;
  set_g "pipeline.check_s" p.timing.check_s;
  set_c "pipeline.summary_pruned" (List.length p.summary_pruned);
  set_c "pipeline.alias_pruned" (List.length p.alias_pruned);
  set_c "pipeline.edges_sliced" p.n_edges_sliced;
  set_c "pipeline.retried" n_retried;
  set_c "pipeline.recovered" p.faults.n_recovered;
  set_c "pipeline.inconclusive" p.faults.n_inconclusive;
  set_c "pipeline.faults_injected" n_faults_injected;
  set_c "smt.budget_hits" n_smt_budget_hits;
  { n_vertices;
    n_edges_before;
    n_edges_after;
    preprocess_s = p.timing.preprocess_s;
    compute_s = p.timing.compute_s;
    total_s = p.timing.preprocess_s +. p.timing.compute_s +. p.timing.check_s;
    n_partitions;
    n_iterations = count m.Engine.Metrics.pairs_processed;
    n_constraints_solved = count m.Engine.Metrics.constraints_solved;
    cache_enabled = p.config.engine.Engine.cache_enabled;
    cache_lookups = count m.Engine.Metrics.cache_lookups;
    cache_hits = count m.Engine.Metrics.cache_hits;
    solve_s = Engine.Metrics.seconds m.Engine.Metrics.solve_s;
    bytes_read = count m.Engine.Metrics.bytes_read;
    bytes_written = count m.Engine.Metrics.bytes_written;
    breakdown = Engine.Metrics.breakdown m;
    n_prefiltered = 0;
    n_summary_pruned = List.length p.summary_pruned;
    n_alias_pruned = List.length p.alias_pruned;
    n_edges_presliced = p.n_edges_presliced;
    n_edges_sliced = p.n_edges_sliced;
    edges_added = count m.Engine.Metrics.edges_added;
    n_retried;
    n_recovered = p.faults.n_recovered;
    n_inconclusive = p.faults.n_inconclusive;
    n_smt_budget_hits;
    n_faults_injected;
    n_corrupt_recovered = count m.Engine.Metrics.corrupt_reads;
    registry = reg }

(* Convenience wrapper: run every phase for a list of properties.  The
   triage tiers default to pruning against exactly the properties being
   checked; a caller-supplied non-empty [prefilter_properties] wins. *)
let check ?config ~workdir program fsms =
  let config =
    let c = match config with Some c -> c | None -> default_config ~workdir in
    if c.prefilter_properties = [] then
      { c with prefilter_properties = fsms }
    else c
  in
  let p = prepare ~config ~workdir program in
  let results, _schedule = check_properties p fsms in
  (p, results)

let cleanup (p : prepared) (props : property_result list) =
  Alias_engine.cleanup p.alias_engine;
  List.iter
    (fun pr ->
      match pr.dataflow_engine with
      | Some e -> Dataflow_engine.cleanup e
      | None ->
          (* a shard instance's partition files outlive its worker process;
             sweep its private workdir by name *)
          if pr.summary <> None then
            sweep_instance_workdir
              (Filename.concat p.config.workdir ("df-" ^ pr.fsm.Fsm.name)))
    props
