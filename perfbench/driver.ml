(* Benchmark driver.  run.py starts every step below in a fresh process, so
   no timed run inherits a heap, a domain or a page cache state from
   another one.

     driver.exe gen WORKLOAD SEED DIR
       Makes the workload's subject with [Workload.Generator], orders its
       classes and methods from SEED, and prints it with [Jir.Pp] to
       DIR/subject.jir.  The planted bugs of
       the checked families go to DIR/truth.tsv with their lines mapped
       onto the printed text (the generator numbers lines its own way).
       Nothing here is timed.  Prints one JSON line describing the input.

     driver.exe run WORKLOAD DIR [--trace FILE] [--weaken TIER]
       One timed run from the JIR text to rendered reports and stats,
       through the public entry points only: [Jir.Resolve.parse_exn],
       [Checkers.resolve], [Pipeline.prepare], [Checkers.run_all_scheduled],
       [Report.to_json] and [Pipeline.stats].  With --trace the benchmark's
       own spans around those calls and the spans the program emits are
       written to FILE.  --weaken breaks one triage tier through the
       test-only [Pipeline.weaken_tier] hook, for the self-check that a
       run which loses reports is counted as failed.  Prints one JSON line
       of timings, work counters and the scored verdict. *)

module Pipeline = Grapple.Pipeline
module Report = Grapple.Report
module Generator = Workload.Generator
module Patterns = Workload.Patterns
module Scoring = Workload.Scoring

type workload = {
  subject : unit -> Generator.subject;
  checkers : string list;
  workers : int;
  shard_procs : int;
  target_partitions : int option;  (* [None]: the engine default *)
  setup_reps : int;
      (* set-up runs per process; set-up of a ~1K-LoC subject takes about
         a millisecond, so one reading is mostly timer noise *)
}

let paper_checkers = [ "io"; "lock"; "exception"; "socket" ]

(* Each workload checks one fixed generated subject.  The generator seed is
   not the benchmark seed: on the minihbase profile, generator seeds 1-6
   took between 0.7 s and 166 s to check, so a benchmark seed that picked
   the generator seed would measure a different workload on every seed. *)
let workload = function
  | "closure" ->
      { subject = Generator.mini_hbase; checkers = paper_checkers;
        workers = 2; shard_procs = 0; target_partitions = None;
        setup_reps = 100 }
  | "frontend" ->
      { subject =
          (fun () ->
            Generator.generate_mega
              (Generator.mega_profile ~name:"mega800" ~units:800 ()));
        checkers = Generator.default_mega_families; workers = 2;
        shard_procs = 0; target_partitions = None; setup_reps = 1 }
  | "ooc-shards" ->
      { subject = Generator.mini_hdfs; checkers = paper_checkers;
        workers = 1; shard_procs = 2; target_partitions = Some 32;
        setup_reps = 100 }
  | "selfcheck" ->
      { subject = Generator.mini_zookeeper; checkers = paper_checkers;
        workers = 1; shard_procs = 0; target_partitions = None;
        setup_reps = 1 }
  | w -> invalid_arg ("unknown workload " ^ w)

let source_name = "subject.jir"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---------------- gen ---------------- *)

(* Generated line -> printed line, by walking the generated and the parsed
   program in step (printing and parsing keep classes, methods and
   statements in order).  A generated line that carries statements printed
   on different lines maps to [None]. *)
let line_map (gen : Jir.Ast.program) (parsed : Jir.Ast.program) =
  let tbl = Hashtbl.create 4096 in
  let note (g : Jir.Ast.stmt) (p : Jir.Ast.stmt) =
    let l = g.Jir.Ast.at.Jir.Ast.line and l' = p.Jir.Ast.at.Jir.Ast.line in
    match Hashtbl.find_opt tbl l with
    | Some (Some prev) when prev <> l' -> Hashtbl.replace tbl l None
    | Some _ -> ()
    | None -> Hashtbl.replace tbl l (Some l')
  in
  let rec block gs ps = List.iter2 stmt gs ps
  and stmt (g : Jir.Ast.stmt) (p : Jir.Ast.stmt) =
    note g p;
    match (g.Jir.Ast.kind, p.Jir.Ast.kind) with
    | Jir.Ast.If (_, g1, g2), Jir.Ast.If (_, p1, p2) ->
        block g1 p1;
        block g2 p2
    | Jir.Ast.While (_, g1), Jir.Ast.While (_, p1) -> block g1 p1
    | Jir.Ast.Try (g1, gcs), Jir.Ast.Try (p1, pcs) ->
        block g1 p1;
        List.iter2
          (fun (gc : Jir.Ast.catch) (pc : Jir.Ast.catch) ->
            block gc.Jir.Ast.handler pc.Jir.Ast.handler)
          gcs pcs
    | _ -> ()
  in
  List.iter2
    (fun (gc : Jir.Ast.cls) (pc : Jir.Ast.cls) ->
      List.iter2
        (fun (gm : Jir.Ast.meth) (pm : Jir.Ast.meth) ->
          block gm.Jir.Ast.body pm.Jir.Ast.body)
        gc.Jir.Ast.methods pc.Jir.Ast.methods)
    gen.Jir.Ast.classes parsed.Jir.Ast.classes;
  tbl

let kind_to_string : Patterns.exp_kind -> string = function
  | `Leak -> "leak"
  | `Error -> "error"
  | `Exn -> "exn"
  | `Lint s -> "lint:" ^ s

let kind_of_string : string -> Patterns.exp_kind = function
  | "leak" -> `Leak
  | "error" -> `Error
  | "exn" -> `Exn
  | s -> invalid_arg ("truth.tsv: unknown kind " ^ s)

(* The benchmark seed orders the classes, and the methods inside each
   class, of the printed program.  The checked program stays the same, so
   every seed asks for the same work (the deterministic counters repeat
   exactly across seeds), while no two seeds feed the tool the same bytes
   or the same line numbers. *)
let permute seed (p : Jir.Ast.program) =
  let rng = Workload.Rng.create seed in
  let shuffle_methods (c : Jir.Ast.cls) =
    { c with Jir.Ast.methods = Workload.Rng.shuffle rng c.Jir.Ast.methods }
  in
  { p with
    Jir.Ast.classes =
      Workload.Rng.shuffle rng (List.map shuffle_methods p.Jir.Ast.classes) }

let gen name seed dir =
  let w = workload name in
  let subject = w.subject () in
  let program = permute seed subject.Generator.program in
  let text = Jir.Pp.program_to_string program in
  let parsed = Jir.Resolve.parse_exn ~file:source_name text in
  let map = line_map program parsed in
  let planted =
    List.filter
      (fun e -> List.mem e.Patterns.exp_checker w.checkers)
      subject.Generator.expected
  in
  let rows =
    List.map
      (fun (e : Patterns.expectation) ->
        match Hashtbl.find_opt map e.Patterns.exp_line with
        | Some (Some line) ->
            Printf.sprintf "%s\t%s\t%d\n" e.Patterns.exp_checker
              (kind_to_string e.Patterns.exp_kind) line
        | _ ->
            failwith
              (Printf.sprintf "planted %s bug at generated line %d has no \
                               unique printed line"
                 e.Patterns.exp_checker e.Patterns.exp_line))
      planted
  in
  write_file (Filename.concat dir source_name) text;
  write_file (Filename.concat dir "truth.tsv") (String.concat "" rows);
  Printf.printf
    {|{"workload":"%s","seed":%d,"digest":"%s","loc":%d,"methods":%d,"planted":%d,"bytes":%d}|}
    name seed
    (Digest.to_hex (Digest.string text))
    subject.Generator.loc subject.Generator.n_methods (List.length planted)
    (String.length text);
  print_newline ()

(* ---------------- run ---------------- *)

let read_truth path : Patterns.expectation list =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ checker; kind; line ] ->
             { Patterns.exp_checker = checker;
               exp_kind = kind_of_string kind;
               exp_line = int_of_string line;
               exp_note = "" }
         | _ -> invalid_arg ("truth.tsv: bad row " ^ l))

let now = Unix.gettimeofday

(* CPU seconds of this process (every domain) plus its reaped children,
   which include the shard workers the supervisor waits for. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> go ()
      in
      go ())

let span name f = Obs.Trace.with_span ~cat:"bench" name f

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run name dir ~trace ~weaken =
  let w = workload name in
  (* a process that has spawned a domain must never fork (OCaml 5): with
     shard workers, keep the solver from spawning any *)
  if w.shard_procs > 0 then Engine.Domains.set_cap 1;
  let text = read_file (Filename.concat dir source_name) in
  let expected = read_truth (Filename.concat dir "truth.tsv") in
  let workdir = Filename.concat dir "work" in
  Engine.ensure_dir workdir;
  let setup () =
    let program =
      span "jir.parse" (fun () -> Jir.Resolve.parse_exn ~file:source_name text)
    in
    let cs =
      span "checkers.resolve" (fun () -> List.map Checkers.resolve w.checkers)
    in
    (program, cs)
  in
  let warm =
    List.init (w.setup_reps - 1) (fun _ ->
        let t0 = now () in
        ignore (setup ());
        now () -. t0)
  in
  Option.iter (fun path -> Obs.Trace.start ~path) trace;
  let cpu0 = cpu_s () in
  let t0 = now () in
  (* ---- timed region: JIR text to rendered reports and stats ---- *)
  let program, cs = setup () in
  let t_setup = now () in
  let fsms =
    List.filter_map
      (fun (c : Checkers.t) ->
        match c.Checkers.kind with
        | `Typestate f -> Some f
        | `Exception_walk _ -> None)
      cs
  in
  let base = Pipeline.default_config ~workdir in
  let config =
    { base with
      Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = fsms;
      workers = w.workers;
      shard_procs = w.shard_procs;
      weaken_tier = weaken;
      engine =
        (match w.target_partitions with
        | Some n -> { base.Pipeline.engine with Engine.target_partitions = n }
        | None -> base.Pipeline.engine) }
  in
  let prepared =
    span "core.prepare" (fun () -> Pipeline.prepare ~config ~workdir program)
  in
  let t_prepare = now () in
  let results, props, schedule =
    span "scheduler.check" (fun () -> Checkers.run_all_scheduled prepared cs)
  in
  let t_check = now () in
  let rendered, stats =
    span "core.render" (fun () ->
        ( List.concat_map (fun (_, rs) -> List.map Report.to_json rs) results,
          Pipeline.stats prepared props ))
  in
  let t_end = now () in
  let cpu1 = cpu_s () in
  (* ---- end of timed region ---- *)
  Obs.Trace.stop ();
  let hwm = vm_hwm_kb () in
  let reports = List.concat_map snd results in
  let scores =
    List.map
      (fun checker ->
        Scoring.score ~allow_empty:true ~checker ~expected ~reports ())
      w.checkers
  in
  let total f = List.fold_left (fun n s -> n + f s) 0 scores in
  let inconclusive =
    List.length
      (List.filter
         (fun (r : Report.t) ->
           match r.Report.kind with Report.Inconclusive _ -> true | _ -> false)
         reports)
  in
  let full_text =
    String.concat "\n"
      (List.concat_map
         (fun (name, rs) ->
           ("== " ^ name) :: List.map (Fmt.str "%a" Report.pp_with_trace) rs)
         results)
  in
  let tracked =
    List.length
      (Pipeline.tracked_alloc_sids prepared.Pipeline.program fsms
         ~excluded:(Hashtbl.create 1))
  in
  let inst =
    List.map (fun (e : Pipeline.schedule_entry) -> e.Pipeline.s_wall_s) schedule
  in
  Pipeline.cleanup prepared props;
  let s = stats in
  Printf.printf
    {|{"wall_s":%.9f,"setup_s":%.9f,"check_s":%.9f,"cpu_s":%.6f,"hwm_kb":%d,"workers":%d,"shard_procs":%d,|}
    (t_end -. t0)
    (median ((t_setup -. t0) :: warm))
    (t_check -. t_prepare) (cpu1 -. cpu0) hwm w.workers w.shard_procs;
  Printf.printf
    {|"reports":%d,"rendered":%d,"report_digest":"%s","tp":%d,"false_warnings":%d,"missed":%d,"inconclusive":%d,|}
    (List.length reports) (List.length rendered)
    (Digest.to_hex (Digest.string full_text))
    (total (fun s -> s.Scoring.tp))
    (total (fun s -> s.Scoring.fp))
    (total (fun s -> s.Scoring.fn))
    (max inconclusive s.Pipeline.n_inconclusive);
  Printf.printf
    {|"instances":%d,"instance_sum_s":%.9f,"instance_max_s":%.9f,"tracked_allocs":%d,|}
    (List.length inst)
    (List.fold_left ( +. ) 0. inst)
    (List.fold_left max 0. inst)
    tracked;
  Printf.printf
    {|"counters":{"vertices":%d,"edges_before":%d,"edges_after":%d,"partitions":%d,"pairs":%d,"constraints_solved":%d,"cache_lookups":%d,"cache_hits":%d,"bytes_read":%d,"bytes_written":%d,"edges_added":%d,"prefiltered":%d,"summary_pruned":%d,"alias_pruned":%d,"edges_presliced":%d,"edges_sliced":%d,"smt_budget_hits":%d,"corrupt_reads":%d},|}
    s.Pipeline.n_vertices s.Pipeline.n_edges_before s.Pipeline.n_edges_after
    s.Pipeline.n_partitions s.Pipeline.n_iterations
    s.Pipeline.n_constraints_solved s.Pipeline.cache_lookups
    s.Pipeline.cache_hits s.Pipeline.bytes_read s.Pipeline.bytes_written
    s.Pipeline.edges_added s.Pipeline.n_prefiltered s.Pipeline.n_summary_pruned
    s.Pipeline.n_alias_pruned s.Pipeline.n_edges_presliced
    s.Pipeline.n_edges_sliced s.Pipeline.n_smt_budget_hits s.Pipeline.n_corrupt_recovered;
  Printf.printf {|"registry":%s}|} (Obs.Registry.to_json s.Pipeline.registry);
  print_newline ()

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; name; seed; dir ] -> gen name (int_of_string seed) dir
  | "run" :: name :: dir :: opts ->
      let rec parse trace weaken = function
        | [] -> run name dir ~trace ~weaken
        | "--trace" :: path :: rest -> parse (Some path) weaken rest
        | "--weaken" :: tier :: rest -> parse trace (Some tier) rest
        | o :: _ -> invalid_arg ("unknown option " ^ o)
      in
      parse None None opts
  | _ ->
      prerr_endline
        "usage: driver.exe gen WORKLOAD SEED DIR\n\
        \       driver.exe run WORKLOAD DIR [--trace FILE] [--weaken TIER]";
      exit 2
