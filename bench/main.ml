(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) against the four synthetic subjects, plus the ablations
   called out in DESIGN.md and one Bechamel micro-benchmark per table.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table2  -- a single experiment
     dune exec bench/main.exe -- fast    -- skip the slowest comparisons

   Absolute numbers are not expected to match the paper (the subjects are
   scaled-down synthetic codebases); the *shapes* are: who finds what, the
   false-positive rate, cache hit rates, the cost breakdown, and the naive
   string-constraint engine needing far more partitions/iterations.        *)

module Pipeline = Grapple.Pipeline
module Generator = Workload.Generator
module Scoring = Workload.Scoring
module Icfet = Symexec.Icfet
module E = Pathenc.Encoding

let root_workdir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "grapple-bench-%d" (Unix.getpid ()))

let line = String.make 78 '-'

let header title paper =
  Printf.printf "\n%s\n%s\n(paper: %s)\n%s\n" line title paper line

(* ------------------------------------------------------------------ *)
(* Shared subject runs: one pipeline execution feeds Tables 1-3 + Fig 9. *)
(* ------------------------------------------------------------------ *)

type run = {
  subject : Generator.subject;
  results : (string * Grapple.Report.t list) list;
  stats : Pipeline.stats;
  wall_s : float;
}

let run_subject (subject : Generator.subject) : run =
  let name = subject.Generator.profile.Generator.name in
  let workdir = Filename.concat root_workdir name in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = Checkers.Specs.library_throwers }
  in
  let t0 = Unix.gettimeofday () in
  let prepared = Pipeline.prepare ~config ~workdir subject.Generator.program in
  let results, props = Checkers.run_all prepared (Checkers.all ()) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let stats = Pipeline.stats prepared props in
  { subject; results; stats; wall_s }

let cached_runs : run list option ref = ref None

let all_runs () =
  match !cached_runs with
  | Some rs -> rs
  | None ->
      Printf.printf "running the four subjects (shared by tables 1-3, fig 9)...\n%!";
      let rs =
        List.map
          (fun s ->
            let r = run_subject s in
            Printf.printf "  %-12s done in %.1fs\n%!"
              s.Generator.profile.Generator.name r.wall_s;
            r)
          (Generator.all_subjects ())
      in
      cached_runs := Some rs;
      rs

let hms seconds =
  let s = int_of_float seconds in
  if s >= 3600 then
    Printf.sprintf "%02dh%02dm%02ds" (s / 3600) (s mod 3600 / 60) (s mod 60)
  else if s >= 60 then Printf.sprintf "%02dm%02ds" (s / 60) (s mod 60)
  else Printf.sprintf "%.1fs" seconds

(* ------------------------------------------------------------------ *)
(* Table 1: subject characteristics.                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: characteristics of subject programs"
    "ZooKeeper 206K / Hadoop 568K / HDFS 546K / HBase 1.37M LoC";
  Printf.printf "%-12s %8s %9s %9s  %s\n" "Subject" "LoC" "#Methods"
    "#Planted" "Description";
  List.iter
    (fun (s : Generator.subject) ->
      Printf.printf "%-12s %8d %9d %9d  %s\n"
        s.Generator.profile.Generator.name s.Generator.loc s.Generator.n_methods
        (List.length s.Generator.expected)
        s.Generator.profile.Generator.description)
    (Generator.all_subjects ());
  print_endline
    "\nshape check: hbase is the largest subject, zookeeper the smallest."

(* ------------------------------------------------------------------ *)
(* Table 2: bugs reported per checker, scored against ground truth.     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: warnings per checker (TP / FP; FN = missed injections)"
    "376 warnings total, 17 false positives (4.7% FP rate)";
  Printf.printf "%-12s" "Subject";
  List.iter (fun c -> Printf.printf " | %-10s" c)
    [ "io"; "lock"; "except."; "socket" ];
  Printf.printf " | %-10s\n" "total";
  let grand_tp = ref 0 and grand_fp = ref 0 and grand_fn = ref 0 in
  List.iter
    (fun r ->
      Printf.printf "%-12s" r.subject.Generator.profile.Generator.name;
      let tot_tp = ref 0 and tot_fp = ref 0 in
      List.iter
        (fun checker ->
          let reports =
            Option.value ~default:[] (List.assoc_opt checker r.results)
          in
          let s =
            Scoring.score ~allow_empty:true ~checker
              ~expected:r.subject.Generator.expected ~reports ()
          in
          tot_tp := !tot_tp + s.Scoring.tp;
          tot_fp := !tot_fp + s.Scoring.fp;
          grand_fn := !grand_fn + s.Scoring.fn;
          Printf.printf " | TP%2d FP%2d" s.Scoring.tp s.Scoring.fp)
        [ "io"; "lock"; "exception"; "socket" ];
      grand_tp := !grand_tp + !tot_tp;
      grand_fp := !grand_fp + !tot_fp;
      Printf.printf " | TP%2d FP%2d\n" !tot_tp !tot_fp)
    (all_runs ());
  let fp_rate =
    if !grand_tp + !grand_fp = 0 then 0.
    else 100. *. float_of_int !grand_fp /. float_of_int (!grand_tp + !grand_fp)
  in
  Printf.printf
    "\ntotals: TP=%d FP=%d FN=%d  (FP rate %.1f%%; paper: 4.7%%)\n" !grand_tp
    !grand_fp !grand_fn fp_rate;
  print_endline
    "shape check: exception handling dominates, lock bugs are rare (one, in\n\
     hdfs), every injected bug is found, false positives are rare.\n\
     (planted null bugs are scored by the extension checker, below)";
  (* extension: the null-dereference checker, on the smallest subject (it
     tracks every [= null] pseudo-allocation, so it is the most expensive
     property per clone) *)
  header "Extension: null-dereference checker (minizk)"
    "not a paper column; evidence the system takes new FSM properties (S1.2)";
  let subject = List.hd (Generator.all_subjects ()) in
  let workdir = Filename.concat root_workdir "ext-null" in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = Checkers.Specs.library_throwers;
      track_null = true }
  in
  let prepared = Pipeline.prepare ~config ~workdir subject.Generator.program in
  let results, _ = Checkers.run_all prepared [ Checkers.null () ] in
  let reports = Option.value ~default:[] (List.assoc_opt "null" results) in
  let sc =
    Scoring.score ~checker:"null" ~expected:subject.Generator.expected ~reports
      ()
  in
  Printf.printf "null checker on minizk: TP=%d FP=%d FN=%d\n" sc.Scoring.tp
    sc.Scoring.fp sc.Scoring.fn

(* ------------------------------------------------------------------ *)
(* Table 3: performance statistics.                                     *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: graph sizes and running times"
    "#V, #E before/after, preprocessing/computation/total time";
  Printf.printf "%-12s %9s %9s %9s %9s %9s %9s\n" "Subject" "#V(K)" "#EB(K)"
    "#EA(K)" "PT" "CT" "TT";
  List.iter
    (fun r ->
      let s = r.stats in
      Printf.printf "%-12s %9.1f %9.1f %9.1f %9s %9s %9s\n"
        r.subject.Generator.profile.Generator.name
        (float_of_int s.Pipeline.n_vertices /. 1000.)
        (float_of_int s.Pipeline.n_edges_before /. 1000.)
        (float_of_int s.Pipeline.n_edges_after /. 1000.)
        (hms s.Pipeline.preprocess_s)
        (hms s.Pipeline.compute_s) (hms r.wall_s))
    (all_runs ());
  print_endline
    "\nshape check: computation adds a large fraction of transitive edges\n\
     (#EA > #EB) and computation time dominates preprocessing."

(* ------------------------------------------------------------------ *)
(* Figure 9: cost breakdown.                                            *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Figure 9: performance breakdown (percent of total)"
    "I/O 1-4%, constraint lookup <1%, SMT solving 33-90%, edge comp. 9-63%";
  Printf.printf "%-12s %8s %12s %12s %12s\n" "Subject" "I/O" "Constraint"
    "SMT" "EdgeComp";
  List.iter
    (fun r ->
      let pct name =
        match List.assoc_opt name r.stats.Pipeline.breakdown with
        | Some p -> p
        | None -> 0.
      in
      Printf.printf "%-12s %7.1f%% %11.1f%% %11.1f%% %11.1f%%\n"
        r.subject.Generator.profile.Generator.name (pct "I/O")
        (pct "Constraint lookup") (pct "SMT solving") (pct "Edge computation"))
    (all_runs ());
  print_endline
    "\nshape check: SMT solving and edge computation dominate; constraint\n\
     encoding/decoding is cheap thanks to the interval representation."

(* ------------------------------------------------------------------ *)
(* Table 4: constraint-cache effectiveness.                             *)
(* ------------------------------------------------------------------ *)

let table4 ~fast () =
  header "Table 4: effectiveness of constraint memoization"
    "hit rates 60-78%, caching saves 64-87% of solving time";
  Printf.printf "%-12s %10s %10s %7s %9s %9s %8s\n" "Subject" "#Lookups"
    "#Hits" "Rate" "TOC(s)" "TWC(s)" "Saving";
  let subjects = Generator.all_subjects () in
  let subjects = if fast then [ List.hd subjects ] else subjects in
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let go ~cache_enabled tag =
        let workdir =
          Filename.concat root_workdir (Printf.sprintf "t4-%s-%s" name tag)
        in
        let config =
          { (Pipeline.default_config ~workdir) with
            Pipeline.library_throwers = Checkers.Specs.library_throwers;
            engine =
              { (Engine.default_config ~workdir) with Engine.cache_enabled } }
        in
        let prepared =
          Pipeline.prepare ~config ~workdir subject.Generator.program
        in
        let _, props = Checkers.run_all prepared (Checkers.all ()) in
        Pipeline.stats prepared props
      in
      let with_cache = go ~cache_enabled:true "wc" in
      let without_cache = go ~cache_enabled:false "nc" in
      let rate =
        if with_cache.Pipeline.cache_lookups = 0 then 0.
        else
          100.
          *. float_of_int with_cache.Pipeline.cache_hits
          /. float_of_int with_cache.Pipeline.cache_lookups
      in
      let toc = without_cache.Pipeline.solve_s in
      let twc = with_cache.Pipeline.solve_s in
      let saving = if toc > 0. then 100. *. (1. -. (twc /. toc)) else 0. in
      Printf.printf "%-12s %10d %10d %6.1f%% %9.2f %9.2f %7.1f%%\n" name
        with_cache.Pipeline.cache_lookups with_cache.Pipeline.cache_hits rate
        toc twc saving)
    subjects;
  print_endline
    "\nshape check: most lookups hit the cache (edges in the same scope share\n\
     paths) and caching saves the majority of constraint-solving time."

(* ------------------------------------------------------------------ *)
(* Table 5: vs. the string-constraint engine.                           *)
(* ------------------------------------------------------------------ *)

module SEngine = Baseline.String_engine.Make (Cfl.Pointer_grammar)
module AEngine = Engine.Make (Cfl.Pointer_grammar)

(* alias-phase comparison under the same memory budget, expressed as ~40
   bytes per interval-encoded edge *)
let table5_budget_edges = 30_000

let alias_graph_of (subject : Generator.subject) =
  let program = Jir.Unroll.unroll_program ~bound:2 subject.Generator.program in
  let icfet = Icfet.build program in
  let cg = Jir.Callgraph.build program in
  let clones = Graphgen.Clone_tree.build icfet cg in
  let ag = Graphgen.Alias_graph.build icfet clones in
  (icfet, ag)

let table5 ~fast () =
  header "Table 5: Grapple vs. naive string-constraint engine (alias phase)"
    "naive needs ~10x partitions, more iterations, times out on the largest";
  Printf.printf "%-12s | %25s | %25s\n" "" "Grapple" "naive (strings)";
  Printf.printf "%-12s | %5s %5s %7s %5s | %5s %5s %7s %5s\n" "Subject" "#part"
    "#iter" "#const" "time" "#part" "#iter" "#const" "time";
  let subjects = Generator.all_subjects () in
  let subjects = if fast then [ List.hd subjects ] else subjects in
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let icfet, ag = alias_graph_of subject in
      (* grapple engine *)
      let gw = Filename.concat root_workdir ("t5g-" ^ name) in
      let gcfg =
        { (Engine.default_config ~workdir:gw) with
          Engine.max_edges_per_partition = table5_budget_edges;
          target_partitions = 2 }
      in
      let g =
        AEngine.create ~config:gcfg ~decode:(Icfet.constraint_of icfet)
          ~workdir:gw ()
      in
      Graphgen.Alias_graph.iter_edges ag (fun e ->
          AEngine.add_seed g ~src:e.Graphgen.Alias_graph.src
            ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
            ~enc:e.Graphgen.Alias_graph.enc);
      let t0 = Unix.gettimeofday () in
      AEngine.run g;
      let g_time = Unix.gettimeofday () -. t0 in
      let gm = AEngine.metrics g in
      (* naive engine: same budget in bytes *)
      let sw = Filename.concat root_workdir ("t5s-" ^ name) in
      let scfg =
        { (Baseline.String_engine.default_config ~workdir:sw) with
          Baseline.String_engine.max_bytes_per_partition =
            table5_budget_edges * 40;
          target_partitions = 2 }
      in
      let s = SEngine.create ~config:scfg ~workdir:sw () in
      Graphgen.Alias_graph.iter_edges ag (fun e ->
          SEngine.add_seed s ~src:e.Graphgen.Alias_graph.src
            ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
            ~cstr:
              (Smt.Formula.to_string
                 (Icfet.constraint_of icfet e.Graphgen.Alias_graph.enc)));
      let t0 = Unix.gettimeofday () in
      SEngine.run s;
      let s_time = Unix.gettimeofday () -. t0 in
      let sm = SEngine.stats s in
      Printf.printf "%-12s | %5d %5d %7d %5s | %5d %5d %7d %5s\n" name
        (AEngine.n_partitions g)
        (Engine.Metrics.count gm.Engine.Metrics.pairs_processed)
        (Engine.Metrics.count gm.Engine.Metrics.constraints_solved)
        (hms g_time)
        sm.Baseline.String_engine.n_partitions
        sm.Baseline.String_engine.iterations
        sm.Baseline.String_engine.constraints_solved (hms s_time);
      AEngine.cleanup g;
      SEngine.cleanup s)
    subjects;
  print_endline
    "\nshape check: under the same memory budget the string engine needs more\n\
     partitions and iterations and pays parse-before-solve on every\n\
     constraint check."

(* ------------------------------------------------------------------ *)
(* §5.3: the traditional in-memory implementation runs out of memory.   *)
(* ------------------------------------------------------------------ *)

let oom () =
  header "Comparison (§5.3): traditional in-memory worklist implementation"
    "ran out of memory on every subject";
  (* apples-to-apples: both implementations get the same memory.  The
     engine's residency is bounded by two loaded partitions; the worklist
     must hold the whole graph plus explicit constraint objects.  The paper
     makes the same comparison at 16 GB scale. *)
  let partition_budget_edges = 2_000 in
  let bytes_per_edge = 150 in
  let shared_budget = 2 * partition_budget_edges * bytes_per_edge in
  Printf.printf "shared memory budget: %d KB (two engine partitions)\n\n"
    (shared_budget / 1024);
  Printf.printf "%-12s %22s | %32s\n" "" "Grapple engine" "in-memory worklist";
  Printf.printf "%-12s %10s %11s | %14s %12s %9s\n" "Subject" "outcome"
    "#partitions" "outcome" "peak bytes" "time";
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let icfet, ag = alias_graph_of subject in
      (* the engine under the same budget: spills to disk and completes *)
      let gw = Filename.concat root_workdir ("oom-" ^ name) in
      let gcfg =
        { (Engine.default_config ~workdir:gw) with
          Engine.max_edges_per_partition = partition_budget_edges;
          target_partitions = 2 }
      in
      let g =
        AEngine.create ~config:gcfg ~decode:(Icfet.constraint_of icfet)
          ~workdir:gw ()
      in
      Graphgen.Alias_graph.iter_edges ag (fun e ->
          AEngine.add_seed g ~src:e.Graphgen.Alias_graph.src
            ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
            ~enc:e.Graphgen.Alias_graph.enc);
      AEngine.run g;
      let parts = AEngine.n_partitions g in
      AEngine.cleanup g;
      let r =
        Baseline.Worklist.run
          ~config:
            { Baseline.Worklist.memory_budget_bytes = shared_budget;
              max_seconds = 120. }
          icfet ag
      in
      Printf.printf "%-12s %10s %11d | %14s %12d %9s\n" name "completed"
        parts
        (match r.Baseline.Worklist.outcome with
        | Baseline.Worklist.Completed -> "completed"
        | Baseline.Worklist.Ran_out_of_memory -> "OUT OF MEMORY")
        r.Baseline.Worklist.peak_bytes
        (hms r.Baseline.Worklist.elapsed_s))
    (Generator.all_subjects ());
  print_endline
    "\nshape check: with the memory that suffices for Grapple's two-partition\n\
     residency, the in-memory implementation (whole graph + explicit\n\
     constraint objects) exhausts its budget on every subject while the\n\
     out-of-core engine completes by spilling partitions to disk."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md): unroll bound and partition budget.            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Summary pre-filter side-by-side: no triage vs. the interprocedural   *)
(* summary tier alone.  The summary stage must prune instances with     *)
(* zero change in reported warnings (TP and FP identical), and the      *)
(* --interproc lints must catch planted whole-program bugs the          *)
(* intraprocedural linter misses.                                       *)
(* ------------------------------------------------------------------ *)

let summaries () =
  header "Summary pre-filter: interprocedural typestate triage (on vs off)"
    "sound pipeline triage ablation + whole-program lints";
  Printf.printf "%-10s %4s %8s %9s %6s %6s %6s %6s %8s %6s\n" "subject"
    "sf" "|V|" "#EA" "#sum" "TP" "FP" "warns" "time" "same";
  let fsms =
    List.filter_map
      (fun (c : Checkers.t) ->
        match c.Checkers.kind with
        | `Typestate fsm -> Some fsm
        | `Exception_walk _ -> None)
      (Checkers.all ())
  in
  let checker_names = [ "io"; "lock"; "exception"; "socket" ] in
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let run on =
        let workdir =
          Filename.concat root_workdir (Printf.sprintf "sum-%s-%b" name on)
        in
        let config =
          { (Pipeline.default_config ~workdir) with
            Pipeline.library_throwers = Checkers.Specs.library_throwers;
            prefilter_properties = fsms;
            summary_prefilter = on;
            alias_prefilter = false }
        in
        let t0 = Unix.gettimeofday () in
        let prepared =
          Pipeline.prepare ~config ~workdir subject.Generator.program
        in
        let results, props = Checkers.run_all prepared (Checkers.all ()) in
        let dt = Unix.gettimeofday () -. t0 in
        (Pipeline.stats prepared props, results, dt)
      in
      let signature results =
        List.concat_map
          (fun (checker, reports) ->
            List.map
              (fun (r : Grapple.Report.t) ->
                ( checker,
                  Grapple.Report.kind_to_string r.Grapple.Report.kind,
                  r.Grapple.Report.alloc_at.Jir.Ast.line ))
              reports)
          results
        |> List.sort compare
      in
      let tp_fp results =
        List.fold_left
          (fun (tp, fp) checker ->
            let reports =
              Option.value ~default:[] (List.assoc_opt checker results)
            in
            let s =
              Scoring.score ~allow_empty:true ~checker
                ~expected:subject.Generator.expected ~reports ()
            in
            (tp + s.Scoring.tp, fp + s.Scoring.fp))
          (0, 0) checker_names
      in
      let s_off, r_off, t_off = run false in
      let s_on, r_on, t_on = run true in
      let warns rs =
        List.fold_left (fun acc (_, l) -> acc + List.length l) 0 rs
      in
      let same = signature r_off = signature r_on in
      let row tag (s : Pipeline.stats) rs dt same_col =
        let tp, fp = tp_fp rs in
        Printf.printf "%-10s %4s %8d %9d %6d %6d %6d %6d %8s %6s\n" name
          tag s.Pipeline.n_vertices s.Pipeline.n_edges_after
          s.Pipeline.n_summary_pruned tp fp (warns rs) (hms dt) same_col
      in
      row "off" s_off r_off t_off "";
      row "on" s_on r_on t_on (if same then "yes" else "NO!"))
    (Generator.all_subjects ());
  print_endline
    "\nshape check: the summary stage alone prunes instances (#sum > 0)\n\
     with identical warnings and TP/FP.";
  (* the --interproc lint surface, scored against the planted
     interprocedural bugs the intraprocedural linter cannot see *)
  header "Whole-program lints (grapple lint --interproc)"
    "interprocedural null/leak findings beyond the intraprocedural linter";
  Printf.printf "%-12s %18s %18s\n" "subject" "interproc TP/FP/FN"
    "intraproc TP";
  List.iter
    (fun (subject : Generator.subject) ->
      let program = subject.Generator.program in
      let diags =
        Analysis.Summaries.interproc_diags ~fsms:(Checkers.fsms ()) program
      in
      let ls =
        Scoring.score_lints ~allow_empty:true ~checker:"interproc"
          ~expected:subject.Generator.expected diags
      in
      let intra =
        Scoring.score_lints ~allow_empty:true ~checker:"interproc"
          ~expected:subject.Generator.expected
          (Analysis.Lint.check_program program)
      in
      Printf.printf "%-12s %11d/%2d/%2d %18d\n"
        subject.Generator.profile.Generator.name ls.Scoring.ltp ls.Scoring.lfp
        ls.Scoring.lfn intra.Scoring.ltp)
    (Generator.all_subjects ());
  print_endline
    "\nshape check: every planted interprocedural bug is found by the summary\n\
     lints (TP >= 1 where planted, FN = 0) and by none of the intraprocedural\n\
     ones (intraproc TP = 0)."

(* ------------------------------------------------------------------ *)
(* Points-to triage side-by-side: no triage vs. the full two-tier       *)
(* triage with the closure-graph slicer.  The points-to stage must      *)
(* prune instances the summary tier keeps and slice alias edges before  *)
(* phase 1, with zero change in reported warnings; the pointsto lints   *)
(* must catch planted heap-flow bugs.                                   *)
(* ------------------------------------------------------------------ *)

let alias () =
  header "Points-to pre-filter and slicer: Andersen triage (on vs off)"
    "sound pipeline triage ablation + closure-graph slicing";
  Printf.printf "%-10s %4s %9s %9s %6s %6s %8s %6s %8s %6s\n" "subject"
    "ap" "|E|pre" "|E|after" "#sum" "#pt" "sliced" "warns" "time" "same";
  let fsms =
    List.filter_map
      (fun (c : Checkers.t) ->
        match c.Checkers.kind with
        | `Typestate fsm -> Some fsm
        | `Exception_walk _ -> None)
      (Checkers.all ())
  in
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let run on =
        let workdir =
          Filename.concat root_workdir (Printf.sprintf "pt-%s-%b" name on)
        in
        let config =
          { (Pipeline.default_config ~workdir) with
            Pipeline.library_throwers = Checkers.Specs.library_throwers;
            prefilter_properties = fsms;
            summary_prefilter = on;
            alias_prefilter = on }
        in
        let t0 = Unix.gettimeofday () in
        let prepared =
          Pipeline.prepare ~config ~workdir subject.Generator.program
        in
        let results, props = Checkers.run_all prepared (Checkers.all ()) in
        let dt = Unix.gettimeofday () -. t0 in
        (Pipeline.stats prepared props, results, dt)
      in
      let signature results =
        List.concat_map
          (fun (checker, reports) ->
            List.map
              (fun (r : Grapple.Report.t) ->
                ( checker,
                  Grapple.Report.kind_to_string r.Grapple.Report.kind,
                  r.Grapple.Report.alloc_at.Jir.Ast.line ))
              reports)
          results
        |> List.sort compare
      in
      let s_off, r_off, t_off = run false in
      let s_on, r_on, t_on = run true in
      let warns rs =
        List.fold_left (fun acc (_, l) -> acc + List.length l) 0 rs
      in
      let same = signature r_off = signature r_on in
      let row tag (s : Pipeline.stats) rs dt same_col =
        Printf.printf "%-10s %4s %9d %9d %6d %6d %8d %6d %8s %6s\n" name
          tag s.Pipeline.n_edges_presliced s.Pipeline.n_edges_after
          s.Pipeline.n_summary_pruned s.Pipeline.n_alias_pruned
          s.Pipeline.n_edges_sliced (warns rs) (hms dt) same_col
      in
      row "off" s_off r_off t_off "";
      row "on" s_on r_on t_on (if same then "yes" else "NO!"))
    (Generator.all_subjects ());
  print_endline
    "\nshape check: the points-to stage prunes instances the summaries\n\
     keep (#pt > 0 on top of #sum) and slices alias edges before phase 1\n\
     (sliced > 0), with the warnings of the untriaged run.";
  (* the pointsto lint surface, scored against the planted heap-flow bugs
     the intraprocedural linter cannot see *)
  header "Whole-program lints (grapple lint --interproc, pointsto)"
    "heap-flow findings beyond the intraprocedural linter";
  Printf.printf "%-12s %18s %18s\n" "subject" "pointsto TP/FP/FN"
    "intraproc TP";
  List.iter
    (fun (subject : Generator.subject) ->
      let program = subject.Generator.program in
      let diags =
        Analysis.Pointsto.diags (Analysis.Pointsto.analyze program)
      in
      let ls =
        Scoring.score_lints ~allow_empty:true ~checker:"pointsto"
          ~expected:subject.Generator.expected diags
      in
      let intra =
        Scoring.score_lints ~allow_empty:true ~checker:"pointsto"
          ~expected:subject.Generator.expected
          (Analysis.Lint.check_program program)
      in
      Printf.printf "%-12s %11d/%2d/%2d %18d\n"
        subject.Generator.profile.Generator.name ls.Scoring.ltp ls.Scoring.lfp
        ls.Scoring.lfn intra.Scoring.ltp)
    (Generator.all_subjects ());
  print_endline
    "\nshape check: every planted heap-flow bug is found by the pointsto\n\
     lints (TP >= 1 where planted, FN = 0) and by none of the\n\
     intraprocedural ones (intraproc TP = 0)."

let ablation () =
  header "Ablation: loop unroll bound k (minizk)" "design choice, §3.1";
  Printf.printf "%3s %8s %8s %8s %8s\n" "k" "TP" "FN" "#EA(K)" "time";
  let subject = Generator.mini_zookeeper () in
  List.iter
    (fun k ->
      let workdir = Filename.concat root_workdir (Printf.sprintf "ab-k%d" k) in
      let config =
        { (Pipeline.default_config ~workdir) with
          Pipeline.unroll_bound = k;
          library_throwers = Checkers.Specs.library_throwers }
      in
      let t0 = Unix.gettimeofday () in
      let prepared =
        Pipeline.prepare ~config ~workdir subject.Generator.program
      in
      let results, props = Checkers.run_all prepared (Checkers.all ()) in
      let dt = Unix.gettimeofday () -. t0 in
      let stats = Pipeline.stats prepared props in
      let tp = ref 0 and fn = ref 0 in
      List.iter
        (fun (checker, reports) ->
          let s =
            Scoring.score ~allow_empty:true ~checker
              ~expected:subject.Generator.expected ~reports ()
          in
          tp := !tp + s.Scoring.tp;
          fn := !fn + s.Scoring.fn)
        results;
      Printf.printf "%3d %8d %8d %8.1f %8s\n" k !tp !fn
        (float_of_int stats.Pipeline.n_edges_after /. 1000.)
        (hms dt))
    [ 1; 2; 3 ];
  header "Ablation: partition memory budget (minizk, alias phase)"
    "out-of-core mechanics, §4.3";
  Printf.printf "%10s %8s %8s %8s\n" "budget" "#part" "#iter" "time";
  let icfet, ag = alias_graph_of subject in
  List.iter
    (fun budget ->
      let workdir =
        Filename.concat root_workdir (Printf.sprintf "ab-b%d" budget)
      in
      let cfg =
        { (Engine.default_config ~workdir) with
          Engine.max_edges_per_partition = budget;
          target_partitions = 2 }
      in
      let g =
        AEngine.create ~config:cfg ~decode:(Icfet.constraint_of icfet)
          ~workdir ()
      in
      Graphgen.Alias_graph.iter_edges ag (fun e ->
          AEngine.add_seed g ~src:e.Graphgen.Alias_graph.src
            ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
            ~enc:e.Graphgen.Alias_graph.enc);
      let t0 = Unix.gettimeofday () in
      AEngine.run g;
      let dt = Unix.gettimeofday () -. t0 in
      let m = AEngine.metrics g in
      Printf.printf "%10d %8d %8d %8s\n" budget (AEngine.n_partitions g)
        (Engine.Metrics.count m.Engine.Metrics.pairs_processed)
        (hms dt);
      AEngine.cleanup g)
    [ 1_000; 5_000; 50_000 ];
  print_endline
    "\nshape check: smaller budgets mean more partitions and more iterations\n\
     for the same final result (the out-of-core trade).";
  header "Ablation: path sensitivity off (Graspan-style closure)"
    "the motivation of the whole paper: without path sensitivity the checker\n\
     over-approximates and reports bugs on infeasible paths (S2)";
  Printf.printf "%-12s %-18s %6s %6s %6s\n" "Subject" "mode" "TP" "FP" "FN";
  List.iter
    (fun (subject : Generator.subject) ->
      List.iter
        (fun sensitive ->
          let name = subject.Generator.profile.Generator.name in
          let workdir =
            Filename.concat root_workdir
              (Printf.sprintf "ab-ps-%s-%b" name sensitive)
          in
          let config =
            { (Pipeline.default_config ~workdir) with
              Pipeline.library_throwers = Checkers.Specs.library_throwers;
              engine =
                { (Engine.default_config ~workdir) with
                  Engine.feasibility_enabled = sensitive } }
          in
          let prepared =
            Pipeline.prepare ~config ~workdir subject.Generator.program
          in
          (* typestate checkers only: the exception walk does its own
             feasibility checking independent of the engine flag *)
          let results, _ =
            Checkers.run_all prepared
              [ Checkers.io (); Checkers.lock (); Checkers.socket () ]
          in
          let tp = ref 0 and fp = ref 0 and fn = ref 0 in
          List.iter
            (fun (checker, reports) ->
              let sc =
                Scoring.score ~allow_empty:true ~checker
                  ~expected:subject.Generator.expected ~reports ()
              in
              tp := !tp + sc.Scoring.tp;
              fp := !fp + sc.Scoring.fp;
              fn := !fn + sc.Scoring.fn)
            results;
          Printf.printf "%-12s %-18s %6d %6d %6d\n" name
            (if sensitive then "path-sensitive" else "insensitive")
            !tp !fp !fn)
        [ true; false ])
    [ Generator.mini_zookeeper (); Generator.mini_hdfs () ];
  print_endline
    "\nshape check: turning path sensitivity off keeps the true positives but\n\
     adds false positives on the planted infeasible-path decoys -- the\n\
     Graspan-vs-Grapple precision gap the paper is built on.";
  header "Ablation: parallel constraint solving (minihdfs pipeline)"
    "\"concurrently accessed by multiple edge-induction threads\", §4.3";
  Printf.printf "%8s %10s %10s\n" "domains" "time" "warnings";
  let hdfs = Generator.mini_hdfs () in
  List.iter
    (fun domains ->
      let workdir =
        Filename.concat root_workdir (Printf.sprintf "ab-d%d" domains)
      in
      let config =
        { (Pipeline.default_config ~workdir) with
          Pipeline.library_throwers = Checkers.Specs.library_throwers;
          engine =
            { (Engine.default_config ~workdir) with
              Engine.solver_domains = domains } }
      in
      let t0 = Unix.gettimeofday () in
      let prepared = Pipeline.prepare ~config ~workdir hdfs.Generator.program in
      let results, _ = Checkers.run_all prepared (Checkers.all ()) in
      let dt = Unix.gettimeofday () -. t0 in
      let warnings =
        List.fold_left (fun a (_, rs) -> a + List.length rs) 0 results
      in
      Printf.printf "%8d %10s %10d\n" domains (hms dt) warnings)
    [ 1; 2; 4 ];
  print_endline
    "\nshape check: identical warnings at every domain count.  Whether wall\n\
     time drops tracks the SMT share of Figure 9: our decomposed\n\
     Fourier-Motzkin solver is far cheaper relative to the join than Z3 was\n\
     in the paper, so at this scale the fan-out overhead can win."

(* ------------------------------------------------------------------ *)
(* Fault injection (robustness extension): the full pipeline under      *)
(* seeded storage-fault rates.  Warnings must be identical to the       *)
(* fault-free run at every rate -- recovery is retries + checkpoint     *)
(* resume, never silent data loss -- and the overhead column is the     *)
(* price paid for that redundant work.                                  *)
(* ------------------------------------------------------------------ *)

let faults () =
  header "Fault injection: recovery overhead at increasing fault rates"
    "robustness extension, not a paper experiment";
  Printf.printf "%-10s %6s %8s %9s %8s %8s %7s %6s\n" "subject" "rate" "time"
    "overhead" "#inject" "#retry" "#incon" "same";
  let signature results =
    List.concat_map
      (fun (checker, reports) ->
        List.map
          (fun (r : Grapple.Report.t) ->
            ( checker,
              Grapple.Report.kind_to_string r.Grapple.Report.kind,
              r.Grapple.Report.alloc_at.Jir.Ast.line ))
          reports)
      results
    |> List.sort compare
  in
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let run_at idx rate =
        let workdir =
          Filename.concat root_workdir (Printf.sprintf "flt-%s-%d" name idx)
        in
        let config =
          { (Pipeline.default_config ~workdir) with
            Pipeline.library_throwers = Checkers.Specs.library_throwers }
        in
        if rate > 0. then
          Engine.Faults.install
            (Engine.Faults.parse (Printf.sprintf "seed=11,rate=%g" rate));
        Fun.protect ~finally:Engine.Faults.clear (fun () ->
            let t0 = Unix.gettimeofday () in
            let prepared =
              Pipeline.prepare ~config ~workdir subject.Generator.program
            in
            let results, props = Checkers.run_all prepared (Checkers.all ()) in
            let dt = Unix.gettimeofday () -. t0 in
            (signature results, Pipeline.stats prepared props, dt))
      in
      let base_sig, _, base_dt = run_at 0 0. in
      List.iteri
        (fun i rate ->
          let sg, st, dt = run_at (i + 1) rate in
          let overhead =
            if base_dt > 0. then 100. *. ((dt /. base_dt) -. 1.) else 0.
          in
          Printf.printf "%-10s %5.0f%% %8s %8.1f%% %8d %8d %7d %6s\n" name
            (100. *. rate) (hms dt)
            (if rate = 0. then 0. else overhead)
            st.Pipeline.n_faults_injected st.Pipeline.n_retried
            st.Pipeline.n_inconclusive
            (if sg = base_sig then "yes" else "NO!"))
        [ 0.; 0.01; 0.05; 0.10 ])
    (Generator.all_subjects ());
  print_endline
    "\nshape check: warnings are identical at every fault rate (same = yes,\n\
     #incon = 0); overhead grows with the rate and is dominated by the\n\
     re-execution the op-level retries and checkpoint resumes perform."

(* ------------------------------------------------------------------ *)
(* Scaling: the parallel instance scheduler (multicore extension).      *)
(* Phase-2/3 wall time swept over worker counts; the warnings must be   *)
(* identical at every count, and resume must work across counts.        *)
(* ------------------------------------------------------------------ *)

let scaling ~fast () =
  header "Scaling: checking instances over a worker-domain pool"
    "multicore extension, not a paper experiment";
  Printf.printf
    "machine: %d recommended domain(s) -- speedups above that count (or on \n\
     a single-core container at all) are not expected\n\n"
    (Domain.recommended_domain_count ());
  let signature results =
    List.concat_map
      (fun (checker, reports) ->
        List.map
          (fun (r : Grapple.Report.t) ->
            ( checker,
              Grapple.Report.kind_to_string r.Grapple.Report.kind,
              r.Grapple.Report.alloc_at.Jir.Ast.line ))
          reports)
      results
    |> List.sort compare
  in
  let subjects = Generator.all_subjects () in
  let subjects = if fast then [ List.hd subjects ] else subjects in
  let sweep = if fast then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  (* null included so the sweep has five typestate instances to schedule *)
  let checkers = Checkers.all_with_null () in
  Printf.printf "%-10s %8s %10s %9s %9s %6s\n" "subject" "workers" "phase2/3"
    "speedup" "warnings" "same";
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let base = ref None in
      List.iter
        (fun workers ->
          let workdir =
            Filename.concat root_workdir
              (Printf.sprintf "scale-%s-w%d" name workers)
          in
          let config =
            { (Pipeline.default_config ~workdir) with
              Pipeline.library_throwers = Checkers.Specs.library_throwers;
              track_null = true;
              workers }
          in
          let prepared =
            Pipeline.prepare ~config ~workdir subject.Generator.program
          in
          (* time phases 2+3 only: phase 0/1 is shared preprocessing the
             scheduler does not touch *)
          let t0 = Unix.gettimeofday () in
          let results, _, _ =
            Checkers.run_all_scheduled ~workers prepared checkers
          in
          let dt = Unix.gettimeofday () -. t0 in
          let sg = signature results in
          let t1, sg1 =
            match !base with
            | Some b -> b
            | None ->
                base := Some (dt, sg);
                (dt, sg)
          in
          let warnings =
            List.fold_left (fun a (_, rs) -> a + List.length rs) 0 results
          in
          Printf.printf "%-10s %8d %10s %8.2fx %9d %6s\n" name workers
            (hms dt)
            (if dt > 0. then t1 /. dt else 1.)
            warnings
            (if sg = sg1 then "yes" else "NO!"))
        sweep)
    subjects;
  print_endline
    "\nshape check: warnings identical at every worker count (same = yes).\n\
     The speedup column tracks phase-2/3 wall time against 1 worker; it\n\
     saturates at min(#instances, #cores) and collapses to ~1.0x on a\n\
     single-core machine, where the pool only adds scheduling overhead."

(* ------------------------------------------------------------------ *)
(* Shard processes: the supervised multi-process runtime (robustness    *)
(* extension).  Phase-2/3 instances run in forked, crash-isolated       *)
(* worker processes; warnings must be identical to the in-process       *)
(* scheduler at every process count, with and without an injected       *)
(* fault plan, and with a worker SIGKILLed mid-run (re-dispatch).       *)
(* ------------------------------------------------------------------ *)

let shards ~fast () =
  header "Shard processes: crash-isolated multi-process scheduler"
    "robustness extension, not a paper experiment";
  let signature results =
    List.concat_map
      (fun (checker, reports) ->
        List.map
          (fun (r : Grapple.Report.t) ->
            ( checker,
              Grapple.Report.kind_to_string r.Grapple.Report.kind,
              r.Grapple.Report.alloc_at.Jir.Ast.line ))
          reports)
      results
    |> List.sort compare
  in
  let subjects = Generator.all_subjects () in
  let subjects = if fast then [ List.hd subjects ] else subjects in
  let checkers = Checkers.all_with_null () in
  Printf.printf "%-10s %-6s %7s %8s %9s %7s %5s %6s\n" "subject" "plan"
    "procs" "time" "warnings" "redisp" "kills" "same";
  List.iter
    (fun (subject : Generator.subject) ->
      let name = subject.Generator.profile.Generator.name in
      let run_one ~tag ~plan ~procs ~kill_nth =
        let workdir =
          Filename.concat root_workdir
            (Printf.sprintf "shard-%s-%s-p%d" name tag procs)
        in
        (match plan with
        | Some spec -> Engine.Faults.install (Engine.Faults.parse spec)
        | None -> ());
        Fun.protect ~finally:Engine.Faults.clear (fun () ->
            let config =
              { (Pipeline.default_config ~workdir) with
                Pipeline.library_throwers = Checkers.Specs.library_throwers;
                track_null = true;
                shard_procs = procs;
                shard_kill_nth = kill_nth;
                heartbeat_ms = 25. }
            in
            let prepared =
              Pipeline.prepare ~config ~workdir subject.Generator.program
            in
            let t0 = Unix.gettimeofday () in
            let results, props, _ =
              Checkers.run_all_scheduled prepared checkers
            in
            let dt = Unix.gettimeofday () -. t0 in
            let stats = Pipeline.stats prepared props in
            (signature results, stats, dt))
      in
      List.iter
        (fun (ptag, plan) ->
          let base = ref None in
          List.iter
            (fun procs ->
              let tag = Printf.sprintf "%s-n" ptag in
              let sg, st, dt = run_one ~tag ~plan ~procs ~kill_nth:0 in
              let sg0 =
                match !base with
                | Some b -> b
                | None ->
                    base := Some sg;
                    sg
              in
              let cnt c =
                Obs.Registry.value
                  (Obs.Registry.counter st.Pipeline.registry c)
              in
              Printf.printf "%-10s %-6s %7s %8s %9d %7d %5d %6s\n" name ptag
                (if procs = 0 then "inproc" else string_of_int procs)
                (hms dt) (List.length sg)
                (cnt "supervisor.redispatches")
                (cnt "supervisor.kills")
                (if sg = sg0 then "yes" else "NO!"))
            [ 0; 1; 2; 4 ];
          (* one worker SIGKILLed at its 2nd assignment: the instance is
             re-dispatched and the output must not change *)
          let sg, st, dt =
            run_one ~tag:(ptag ^ "-k") ~plan ~procs:2 ~kill_nth:2
          in
          let cnt c =
            Obs.Registry.value (Obs.Registry.counter st.Pipeline.registry c)
          in
          Printf.printf "%-10s %-6s %7s %8s %9d %7d %5d %6s\n" name ptag
            "2+kill" (hms dt) (List.length sg)
            (cnt "supervisor.redispatches")
            (cnt "supervisor.kills")
            (if Some sg = !base then "yes" else "NO!"))
        [ ("none", None); ("5%", Some "seed=11,rate=0.05") ])
    subjects;
  print_endline
    "\nshape check: warnings identical at every process count, under the\n\
     fault plan, and with a worker killed mid-run (same = yes everywhere;\n\
     the kill row shows kills > 0 and redisp > 0 with unchanged output)."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure.              *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel): the dominant kernel of each table"
    "n/a -- engineering sanity checks";
  let open Bechamel in
  (* table 1 kernel: subject generation *)
  let t1 =
    Test.make ~name:"table1/generate-subject"
      (Staged.stage (fun () ->
           ignore
             (Generator.generate
                { Generator.name = "bench"; description = ""; seed = 1;
                  layers = 2; classes_per_layer = 1; methods_per_class = 2;
                  patterns_per_method = 1; calls_per_method = 1;
                  bugs = [ ("io", 1) ]; lint_bugs = [];
                  loops_per_subject = 0 })))
  in
  (* table 2 kernel: FSM typestate run *)
  let fsm = Checkers.Specs.io_fsm () in
  let t2 =
    Test.make ~name:"table2/fsm-sequence-check"
      (Staged.stage (fun () ->
           ignore
             (Fsm.check_sequence fsm [ "write"; "write"; "close"; "write" ])))
  in
  (* table 3 kernel: SMT solving of a path-like conjunction *)
  let x = Smt.Linexpr.var (Smt.Symbol.intern "bx") in
  let y = Smt.Linexpr.var (Smt.Symbol.intern "by") in
  let path_constraint =
    Smt.Formula.conj
      [ Smt.Formula.ge x (Smt.Linexpr.const 0);
        Smt.Formula.eq y (Smt.Linexpr.sub x (Smt.Linexpr.const 1));
        Smt.Formula.gt y (Smt.Linexpr.const 0);
        Smt.Formula.le x (Smt.Linexpr.const 100) ]
  in
  let t3 =
    Test.make ~name:"table3/smt-solve"
      (Staged.stage (fun () -> ignore (Smt.Solver.check path_constraint)))
  in
  (* table 4 kernel: LRU hit *)
  let cache = Engine.Lru.create 1024 in
  let key = [ E.Interval { meth = 0; first = 0; last = 6 } ] in
  Engine.Lru.add cache key true;
  let t4 =
    Test.make ~name:"table4/lru-lookup"
      (Staged.stage (fun () -> ignore (Engine.Lru.find cache key)))
  in
  (* table 5 kernel: string constraint parse, the naive engine's extra cost *)
  let cstr = "((bx <= 0 & 1 - by <= 0) & (bx - by = 0 | bx <= 0))" in
  let t5 =
    Test.make ~name:"table5/string-parse"
      (Staged.stage (fun () -> ignore (Baseline.Formula_parser.parse cstr)))
  in
  (* fig 9 kernel: encoding compose + normalize *)
  let e1 =
    [ E.Interval { meth = 0; first = 0; last = 2 }; E.Call 3;
      E.Interval { meth = 1; first = 0; last = 0 } ]
  in
  let e2 =
    [ E.Interval { meth = 1; first = 0; last = 5 }; E.Ret 3;
      E.Interval { meth = 0; first = 2; last = 6 } ]
  in
  let f9 =
    Test.make ~name:"fig9/encoding-compose"
      (Staged.stage (fun () -> ignore (E.compose_normalized e1 e2)))
  in
  let grouped = Test.make_grouped ~name:"grapple" [ t1; t2; t3; t4; t5; f9 ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances grouped in
  List.iter
    (fun instance ->
      let tbl = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) tbl [] in
      List.iter
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Printf.printf "%-34s %14.1f ns/run\n" name est
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        (List.sort compare rows))
    instances

(* ------------------------------------------------------------------ *)
(* Baseline snapshot: a machine-readable performance record per commit.  *)
(* ------------------------------------------------------------------ *)

(* Writes BENCH_<rev>.json in the current directory: per-subject wall
   time, Figure-9 breakdown percentages, cache hit rate, and closure
   throughput (edges added per second of compute).  Comparing two such
   files across commits is the intended regression check. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      if status = Unix.WEXITED 0 && rev <> "" then rev else "dev"
  | exception _ -> "dev"

let baseline () =
  header "Baseline: performance snapshot for this commit"
    "regression tracking, not a paper figure";
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let subject_json (r : run) =
    let s = r.stats in
    let name = r.subject.Generator.profile.Generator.name in
    let hit_rate =
      if s.Pipeline.cache_lookups = 0 then 0.
      else float_of_int s.Pipeline.cache_hits /. float_of_int s.Pipeline.cache_lookups
    in
    let edges_per_s =
      if s.Pipeline.compute_s > 0. then
        float_of_int s.Pipeline.edges_added /. s.Pipeline.compute_s
      else 0.
    in
    let breakdown =
      String.concat ","
        (List.map
           (fun (component, pct) ->
             Printf.sprintf "%S:%.2f" component pct)
           s.Pipeline.breakdown)
    in
    Printf.sprintf
      {|    {"subject":%S,"wall_s":%.3f,"preprocess_s":%.3f,"compute_s":%.3f,"edges_added":%d,"edges_per_s":%.1f,"cache_hit_rate":%.4f,"bytes_read":%d,"bytes_written":%d,"n_alias_pruned":%d,"n_edges_presliced":%d,"n_edges_sliced":%d,"breakdown_pct":{%s}}|}
      name r.wall_s s.Pipeline.preprocess_s s.Pipeline.compute_s
      s.Pipeline.edges_added edges_per_s hit_rate s.Pipeline.bytes_read
      s.Pipeline.bytes_written s.Pipeline.n_alias_pruned
      s.Pipeline.n_edges_presliced s.Pipeline.n_edges_sliced breakdown
  in
  let runs = all_runs () in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"rev\": %S,\n  \"subjects\": [\n%s\n  ]\n}\n" rev
    (String.concat ",\n" (List.map subject_json runs));
  close_out oc;
  List.iter
    (fun (r : run) ->
      Printf.printf "  %-12s wall=%s edges/s=%.0f\n"
        r.subject.Generator.profile.Generator.name (hms r.wall_s)
        (if r.stats.Pipeline.compute_s > 0. then
           float_of_int r.stats.Pipeline.edges_added
           /. r.stats.Pipeline.compute_s
         else 0.))
    runs;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* DSL checkers: the four spec-defined properties against their         *)
(* dedicated seed-fixed subjects -- per-checker wall time, graph size,  *)
(* pruning, and ground-truth score.  The final row runs the paper's     *)
(* plain exception walk on the try-with-resources subject and scores it *)
(* against the exc_twr ground truth: its FP column is exactly the       *)
(* residual false-positive class the handler-aware walk kills.          *)
(* ------------------------------------------------------------------ *)

let dsl_checkers () =
  header "DSL checkers: spec-defined properties vs ground truth"
    "property DSL extension, not a paper experiment";
  Printf.printf "%-11s %-10s %9s %5s %6s %4s %4s %4s %8s\n" "checker"
    "subject" "|E|after" "#spr" "warns" "TP" "FP" "FN" "time";
  let row label (subject : Generator.subject) (c : Checkers.t) ~score_as =
    let name = subject.Generator.profile.Generator.name in
    let workdir =
      Filename.concat root_workdir (Printf.sprintf "dsl-%s-%s" label name)
    in
    let prefilter_properties =
      match c.Checkers.kind with
      | `Typestate f -> [ f ]
      | `Exception_walk _ -> []
    in
    let config =
      { (Pipeline.default_config ~workdir) with
        Pipeline.library_throwers = Checkers.Specs.library_throwers;
        prefilter_properties }
    in
    let t0 = Unix.gettimeofday () in
    let prepared =
      Pipeline.prepare ~config ~workdir subject.Generator.program
    in
    let results, props = Checkers.run_all prepared [ c ] in
    let dt = Unix.gettimeofday () -. t0 in
    let stats = Pipeline.stats prepared props in
    let reports =
      List.concat_map snd results
      |> List.map (fun (r : Grapple.Report.t) ->
             { r with Grapple.Report.checker = score_as })
    in
    let s =
      Scoring.score ~checker:score_as ~expected:subject.Generator.expected
        ~reports ()
    in
    Printf.printf "%-11s %-10s %9d %5d %6d %4d %4d %4d %8s\n" label name
      stats.Pipeline.n_edges_after stats.Pipeline.n_summary_pruned
      (List.length reports)
      s.Scoring.tp s.Scoring.fp s.Scoring.fn (hms dt)
  in
  row "lock_order" (Generator.mini_locks ())
    (Checkers.resolve "lock_order") ~score_as:"lock_order";
  row "taint" (Generator.mini_taint ()) (Checkers.resolve "taint")
    ~score_as:"taint";
  row "close" (Generator.mini_close ()) (Checkers.resolve "close")
    ~score_as:"close";
  row "exc_twr" (Generator.mini_twr ()) (Checkers.resolve "exc_twr")
    ~score_as:"exc_twr";
  row "exception*" (Generator.mini_twr ()) (Checkers.exception_ ())
    ~score_as:"exc_twr";
  Printf.printf
    "(exception* = plain walk scored against the exc_twr ground truth)\n"

(* ------------------------------------------------------------------ *)
(* Megaload: the 100K+-LoC workload tier (ISSUE 9).  One generated      *)
(* mega subject through the full pipeline at shard-procs {1,4} and      *)
(* workers {1,4}; asserts the four warning reports are byte-identical   *)
(* and records edges/s, peak RSS, and the triage-tier prune rates into  *)
(* BENCH_<rev>.json.                                                    *)
(* ------------------------------------------------------------------ *)

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go acc =
      match input_line ic with
      | line ->
          let acc =
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              match
                String.split_on_char ' ' line |> List.filter (( <> ) "")
              with
              | _ :: v :: _ -> Option.value ~default:acc (int_of_string_opt v)
              | _ -> acc
            else acc
          in
          go acc
      | exception End_of_file ->
          close_in ic;
          acc
    in
    go 0
  with _ -> 0

let render_results results =
  results
  |> List.concat_map (fun (name, rs) ->
         List.map (fun r -> name ^ " " ^ Grapple.Report.to_json r) rs)
  |> String.concat "\n"

(* Splice a "megaload" entry into this commit's BENCH_<rev>.json,
   preserving the baseline subjects if the file already exists. *)
let record_megaload_json json =
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let entry = Printf.sprintf "  \"megaload\": %s\n}\n" json in
  let content =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let n = in_channel_length ic in
      let old = really_input_string ic n in
      close_in ic;
      (* drop any previous megaload entry, then the closing brace *)
      let find_sub hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          if i + nn > nh then None
          else if String.sub hay i nn = needle then Some i
          else go (i + 1)
        in
        go 0
      in
      let old =
        match find_sub old ",\n  \"megaload\":" with
        | Some i -> String.sub old 0 i ^ "\n}\n"
        | None -> old
      in
      match String.rindex_opt old '}' with
      | Some i -> String.sub old 0 i ^ ",\n" ^ entry
      | None -> Printf.sprintf "{\n  \"rev\": %S,\n%s" rev entry
    end
    else Printf.sprintf "{\n  \"rev\": %S,\n%s" rev entry
  in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Printf.printf "recorded megaload entry in %s\n" path

let megaload ~fast () =
  header "Megaload: the 100K+-LoC workload tier"
    "checking 1M-LoC codebases on one desktop (SS1, SS5)";
  let units =
    match
      Option.bind (Sys.getenv_opt "GRAPPLE_MEGALOAD_UNITS") int_of_string_opt
    with
    | Some u when u > 0 -> u
    | _ -> if fast then 60 else 400
  in
  Printf.printf "generating mega100k (%d units)...\n%!" units;
  let t0 = Unix.gettimeofday () in
  let subject = Generator.mega_100k ~units () in
  let gen_s = Unix.gettimeofday () -. t0 in
  Printf.printf "  %d LoC, %d methods, %d planted bugs (generated in %s)\n%!"
    subject.Generator.loc subject.Generator.n_methods
    (List.length subject.Generator.expected)
    (hms gen_s);
  let cs = Checkers.all () in
  let fsms =
    List.filter_map
      (fun (c : Checkers.t) ->
        match c.Checkers.kind with
        | `Typestate f -> Some f
        | `Exception_walk _ -> None)
      cs
  in
  let one ~label ~workers ~shard_procs =
    let workdir = Filename.concat root_workdir ("mega-" ^ label) in
    let config =
      { (Pipeline.default_config ~workdir) with
        Pipeline.library_throwers = Checkers.Specs.library_throwers;
        prefilter_properties = fsms;
        workers;
        shard_procs }
    in
    let t0 = Unix.gettimeofday () in
    let prepared =
      Pipeline.prepare ~config ~workdir subject.Generator.program
    in
    let results, props, _ = Checkers.run_all_scheduled prepared cs in
    let wall = Unix.gettimeofday () -. t0 in
    let stats = Pipeline.stats prepared props in
    Printf.printf "  %-14s wall=%-8s warnings=%d\n%!" label (hms wall)
      (List.fold_left (fun n (_, rs) -> n + List.length rs) 0 results);
    (render_results results, stats, wall)
  in
  (* ordering constraint: the shard runs fork worker processes, and a
     process that has spawned domains must never fork (OCaml 5) — so both
     shard configurations run first, with the shared domain budget capped
     at 1 to keep the solver fan-out from creating domains either. *)
  Engine.Domains.set_cap 1;
  let shard1 = one ~label:"shard-procs=1" ~workers:1 ~shard_procs:1 in
  let shard4 = one ~label:"shard-procs=4" ~workers:1 ~shard_procs:4 in
  Engine.Domains.set_cap Engine.Domains.default_cap;
  let w1 = one ~label:"workers=1" ~workers:1 ~shard_procs:0 in
  let w4 = one ~label:"workers=4" ~workers:4 ~shard_procs:0 in
  let base, stats, wall = w1 in
  let identical =
    List.for_all (fun (r, _, _) -> r = base) [ shard1; shard4; w4 ]
  in
  Printf.printf
    "  warnings byte-identical across workers {1,4} x shard-procs {1,4}: %s\n"
    (if identical then "yes" else "NO — DIVERGENCE");
  let edges_per_s =
    if stats.Pipeline.compute_s > 0. then
      float_of_int stats.Pipeline.edges_added /. stats.Pipeline.compute_s
    else 0.
  in
  let rss = peak_rss_kb () in
  Printf.printf
    "  edges/s=%.0f peak_rss=%dMB summary_pruned=%d alias_pruned=%d\n"
    edges_per_s (rss / 1024) stats.Pipeline.n_summary_pruned
    stats.Pipeline.n_alias_pruned;
  let wall_of (_, _, w) = w in
  record_megaload_json
    (Printf.sprintf
       {|{"units":%d,"loc":%d,"n_methods":%d,"gen_s":%.3f,"wall_s_workers1":%.3f,"wall_s_workers4":%.3f,"wall_s_shard1":%.3f,"wall_s_shard4":%.3f,"edges_added":%d,"edges_per_s":%.1f,"peak_rss_kb":%d,"n_summary_pruned":%d,"n_alias_pruned":%d,"n_edges_presliced":%d,"n_edges_sliced":%d,"byte_identical":%b}|}
       units subject.Generator.loc subject.Generator.n_methods gen_s wall
       (wall_of w4) (wall_of shard1) (wall_of shard4)
       stats.Pipeline.edges_added edges_per_s rss
       stats.Pipeline.n_summary_pruned stats.Pipeline.n_alias_pruned
       stats.Pipeline.n_edges_presliced stats.Pipeline.n_edges_sliced
       identical);
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args = List.filter (fun a -> a <> "--") args in
  let fast = List.mem "fast" args in
  let args = List.filter (fun a -> a <> "fast") args in
  Engine.ensure_dir root_workdir;
  let experiments =
    [ ("table1", fun () -> table1 ());
      ("table2", fun () -> table2 ());
      ("table3", fun () -> table3 ());
      ("fig9", fun () -> fig9 ());
      ("table4", fun () -> table4 ~fast ());
      ("table5", fun () -> table5 ~fast ());
      ("oom", fun () -> oom ());
      ("ablation", fun () -> ablation ());
      ("summaries", fun () -> summaries ());
      ("alias", fun () -> alias ());
      ("faults", fun () -> faults ());
      ("scaling", fun () -> scaling ~fast ());
      ("shards", fun () -> shards ~fast ());
      ("micro", fun () -> micro ());
      ("checkers", fun () -> dsl_checkers ());
      ("baseline", fun () -> baseline ());
      ("megaload", fun () -> megaload ~fast ()) ]
  in
  let chosen =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s\n" n;
                exit 2)
          names
  in
  Printf.printf "grapple benchmark harness -- %d experiment(s)\n"
    (List.length chosen);
  List.iter (fun (_, f) -> f ()) chosen;
  Printf.printf "\n%s\nall experiments done.\n" line
