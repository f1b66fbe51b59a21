(* Tests for the supervised multi-process shard runtime (ISSUE 8).

   The contract under test: with the phase-2/3 instances running in forked
   worker processes, the rendered reports are byte-identical to the
   in-process scheduler at every process count, under fault plans, and
   under deterministic SIGKILL injection; a worker killed mid-instance is
   re-dispatched from its checkpoint manifest with zero lost instances; and
   an instance that keeps losing its worker degrades to [Inconclusive]
   instead of stalling or aborting the run.  Unit tests pin the supervisor
   itself: completion, re-dispatch after worker death, the degradation
   ladder, and deadline kills. *)

module Faults = Engine.Faults
module Supervisor = Engine.Supervisor
module Interrupt = Engine.Interrupt
module Pipeline = Grapple.Pipeline
module R = Obs.Registry

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-shard-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let cval reg name = R.value (R.counter reg name)

(* ---------------- supervisor unit tests ---------------- *)

(* Fast heartbeats and tiny backoffs so worker deaths settle quickly. *)
let sup_config ?(procs = 1) ?(max_redispatch = 2) ?(deadline_s = 0.)
    ?(kill_nth = 0) () =
  { Supervisor.default_config with
    Supervisor.procs;
    heartbeat_ms = 20.;
    max_redispatch;
    deadline_s;
    retry_base_ms = 0.01;
    kill_nth }

let test_supervisor_completes () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg ~config:(sup_config ~procs:2 ())
      ~tasks:[| "a"; "b"; "c" |]
      ~run_task:(fun ~task ~attempt:_ -> Printf.sprintf "r%d" task)
      ()
  in
  Array.iteri
    (fun i o ->
      match o with
      | Supervisor.Completed { payload; slot; wall_s } ->
          Alcotest.(check string)
            (Printf.sprintf "task %d payload" i)
            (Printf.sprintf "r%d" i)
            payload;
          Alcotest.(check bool)
            (Printf.sprintf "task %d sane slot/wall" i)
            true
            (slot >= 0 && slot < 2 && wall_s >= 0.)
      | Supervisor.Degraded r -> Alcotest.failf "task %d degraded: %s" i r)
    outcomes;
  Alcotest.(check int) "no kills" 0 (cval reg "supervisor.kills");
  Alcotest.(check int) "two workers spawned" 2 (cval reg "supervisor.spawns")

(* A task that dies on its first attempt (the worker process exits) and
   succeeds on the re-dispatch: the instance completes with one kill and
   one re-dispatch on the books. *)
let test_supervisor_redispatch_recovers () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg ~config:(sup_config ())
      ~tasks:[| "flaky" |]
      ~run_task:(fun ~task:_ ~attempt ->
        if attempt = 0 then failwith "injected worker death" else "recovered")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Completed { payload; _ } ->
      Alcotest.(check string) "payload" "recovered" payload
  | Supervisor.Degraded r -> Alcotest.failf "degraded: %s" r);
  Alcotest.(check int) "one redispatch" 1 (cval reg "supervisor.redispatches");
  Alcotest.(check bool) "the dead worker was reaped" true
    (cval reg "supervisor.kills" >= 1);
  Alcotest.(check int) "nothing degraded" 0 (cval reg "supervisor.degraded")

(* The degradation ladder: a task that kills every worker it touches is
   given up after [max_redispatch] re-dispatches, with a reason naming the
   instance — the run completes instead of spinning. *)
let test_supervisor_degrades_after_limit () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg
      ~config:(sup_config ~max_redispatch:2 ())
      ~tasks:[| "doomed" |]
      ~run_task:(fun ~task:_ ~attempt:_ -> failwith "always dies")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Degraded reason ->
      Alcotest.(check bool) "reason names the instance" true
        (contains reason "doomed")
  | Supervisor.Completed _ -> Alcotest.fail "expected Degraded");
  Alcotest.(check int) "exactly max_redispatch re-dispatches" 2
    (cval reg "supervisor.redispatches");
  Alcotest.(check int) "one degraded" 1 (cval reg "supervisor.degraded");
  Alcotest.(check int) "every dispatch killed a worker" 3
    (cval reg "supervisor.kills")

(* A dispatch that overruns its wall deadline is killed and re-dispatched;
   the retry (which returns promptly) completes the task. *)
let test_supervisor_deadline_kill () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg
      ~config:(sup_config ~deadline_s:0.4 ())
      ~tasks:[| "slow" |]
      ~run_task:(fun ~task:_ ~attempt ->
        if attempt = 0 then Unix.sleep 30;
        "woke")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Completed { payload; _ } ->
      Alcotest.(check string) "payload" "woke" payload
  | Supervisor.Degraded r -> Alcotest.failf "degraded: %s" r);
  Alcotest.(check bool) "deadline killed the first dispatch" true
    (cval reg "supervisor.kills" >= 1);
  Alcotest.(check bool) "and re-dispatched it" true
    (cval reg "supervisor.redispatches" >= 1)

(* The cooperative interrupt flag: request -> engines raise [Interrupted]
   at their next budget poll; reset -> they don't. *)
let test_interrupt_flag () =
  Interrupt.reset ();
  Alcotest.(check bool) "clear at rest" false (Interrupt.requested ());
  Interrupt.request ();
  Alcotest.(check bool) "set after request" true (Interrupt.requested ());
  (match Interrupt.check () with
  | () -> Alcotest.fail "check should raise when requested"
  | exception Engine.Interrupted -> ());
  Interrupt.reset ();
  Interrupt.check ();
  Alcotest.(check bool) "clear after reset" false (Interrupt.requested ())

(* ---------------- pipeline-level shard runs ---------------- *)

(* Like [Suite_parallel.run] but through the shard-process scheduler. *)
let run_shard ?(procs = 2) ?(kill_nth = 0) ?(max_redispatch = 3) ?plan
    ?(throwers = []) program : Suite_parallel.outcome =
  let workdir = fresh_workdir () in
  let saved = Faults.current () in
  (match plan with
  | Some spec -> Faults.install (Faults.parse spec)
  | None -> Faults.clear ());
  Fun.protect
    ~finally:(fun () ->
      match saved with Some p -> Faults.install p | None -> Faults.clear ())
  @@ fun () ->
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = throwers;
      track_null = true;
      prefilter_properties = Checkers.fsms ();
      shard_procs = procs;
      heartbeat_ms = 20.;
      max_redispatch;
      shard_kill_nth = kill_nth;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let results, props, schedule =
    Checkers.run_all_scheduled prepared (Checkers.all_with_null ())
  in
  let stats = Pipeline.stats prepared props in
  let warnings =
    List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 results
  in
  { Suite_parallel.o_reports = Suite_parallel.render results;
    o_counters = Suite_parallel.counters stats ~warnings;
    o_stats = stats;
    o_schedule = schedule }

(* Reports AND integer counters byte-identical across {in-process, 1, 2, 4}
   worker processes on a hand-written and a generated subject. *)
let test_shard_differential () =
  List.iter
    (fun (name, program) ->
      let base = Suite_parallel.run ~workers:1 program in
      Alcotest.(check bool)
        (name ^ ": subject produces warnings")
        true
        (base.Suite_parallel.o_reports <> "");
      List.iter
        (fun procs ->
          let out = run_shard ~procs program in
          Suite_parallel.check_same
            ~what:(Printf.sprintf "%s p%d" name procs)
            base out;
          List.iter
            (fun (e : Pipeline.schedule_entry) ->
              if not (e.Pipeline.s_worker >= 0 && e.Pipeline.s_worker < procs)
              then
                Alcotest.failf "%s p%d: instance %s on worker slot %d" name
                  procs e.Pipeline.s_instance e.Pipeline.s_worker)
            out.Suite_parallel.o_schedule)
        [ 1; 2; 4 ])
    [ ( "quickstart",
        Jir.Resolve.parse_exn ~file:"quickstart.jir"
          Suite_parallel.quickstart_src );
      ("gen11", Suite_parallel.generated ~seed:11) ]

(* ---------------- the summary tier's fan-out ---------------- *)

(* The summary tier runs its properties on up to [workers] domains, and
   stays sequential under shard processes.  Neither may reach the output:
   the full report text, witnesses and paths included, and the pruned sids
   must be the same at workers 1, 2 and 4 and at 2 shard processes.  Every
   run prunes with the same seven properties, so the tier has lanes to fill.
   On the three large mini profiles the io instance alone takes seconds, so
   those run the other paper checkers.  Pruned allocations compare as
   class@line: each run unrolls the program afresh, which renumbers the
   statements of unrolled loop bodies. *)
let summary_fanout_run ~workers ~procs ~checkers program =
  let workdir = fresh_workdir () in
  let typestate n =
    match (Checkers.resolve n).Checkers.kind with
    | `Typestate f -> Some f
    | `Exception_walk _ -> None
  in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties =
        List.filter_map typestate
          [ "io"; "lock"; "socket"; "null"; "lock_order"; "taint"; "close" ];
      workers;
      shard_procs = procs;
      heartbeat_ms = 20. }
  in
  let before = Engine.Domains.n_spawned () in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let lanes = Engine.Domains.n_spawned () - before + 1 in
  let results, props, _ =
    Checkers.run_all_scheduled prepared (List.map Checkers.resolve checkers)
  in
  Pipeline.cleanup prepared props;
  let sites = Analysis.Summaries.alloc_sites prepared.Pipeline.program in
  let pruned =
    List.map
      (fun sid ->
        let a = Hashtbl.find sites sid in
        Printf.sprintf "%s@%d" a.Analysis.Summaries.a_cls
          a.Analysis.Summaries.a_at.Jir.Ast.line)
      prepared.Pipeline.summary_pruned
    |> List.sort compare
  in
  let text =
    String.concat "\n"
      (List.concat_map
         (fun (name, rs) ->
           ("== " ^ name)
           :: List.map (Fmt.str "%a" Grapple.Report.pp_with_trace) rs)
         results)
  in
  (text, pruned, lanes)

let test_summary_fanout_differential () =
  let paper = [ "io"; "lock"; "exception"; "socket" ] in
  let light = [ "lock"; "exception"; "socket" ] in
  let subjects =
    let open Workload.Generator in
    [ ("minizk", mini_zookeeper, paper);
      ("minihadoop", mini_hadoop, light);
      ("minihdfs", mini_hdfs, light);
      ("minihbase", mini_hbase, light);
      ("minilocks", mini_locks, [ "lock"; "lock_order" ]);
      ("minitaint", mini_taint, [ "taint" ]);
      ("miniclose", mini_close, [ "close" ]);
      ("minitwr", mini_twr, [ "exception"; "exc_twr" ]);
      ("mega4", (fun () -> mega_100k ~units:4 ()), default_mega_families) ]
  in
  let programs =
    List.map
      (fun (name, mk, checkers) ->
        (name, (mk ()).Workload.Generator.program, checkers))
      subjects
  in
  let run ~workers ~procs (_, program, checkers) =
    summary_fanout_run ~workers ~procs ~checkers program
  in
  (* the sharded runs first: a process that has ever spawned a domain may
     not fork *)
  let sharded = List.map (run ~workers:1 ~procs:2) programs in
  (* four live domains even on a smaller machine, so workers 4 has four
     lanes *)
  Engine.Domains.set_cap 4;
  Fun.protect ~finally:(fun () ->
      Engine.Domains.set_cap Engine.Domains.default_cap)
  @@ fun () ->
  List.iter2
    (fun ((name, _, _) as subject) p2 ->
      let base_text, base_pruned, _ = run ~workers:1 ~procs:0 subject in
      Alcotest.(check bool) (name ^ ": the tier prunes") true
        (base_pruned <> []);
      List.iter
        (fun (what, expected_lanes, (text, pruned, lanes)) ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s: summary lanes" name what)
            expected_lanes lanes;
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s: summary_pruned" name what)
            base_pruned pruned;
          Alcotest.(check string)
            (Printf.sprintf "%s %s: report text" name what)
            base_text text)
        [ ("p2", 1, p2);
          ("w2", 2, run ~workers:2 ~procs:0 subject);
          ("w4", 4, run ~workers:4 ~procs:0 subject) ])
    programs sharded

(* Under a 5% fault plan: warnings identical to the in-process run, and the
   full counter set identical across shard process counts (each instance's
   fault stream is derived from its own identity, never from placement). *)
let test_shard_fault_plan_differential () =
  let program = Suite_parallel.generated ~seed:11 in
  let plan = "seed=9,rate=0.05" in
  let inproc = Suite_parallel.run ~workers:1 ~plan program in
  let shard1 = run_shard ~procs:1 ~plan program in
  Alcotest.(check bool) "plan actually fired in the workers" true
    (shard1.Suite_parallel.o_stats.Pipeline.n_faults_injected > 0);
  Alcotest.(check string) "reports: shard p1 = in-process"
    inproc.Suite_parallel.o_reports shard1.Suite_parallel.o_reports;
  List.iter
    (fun procs ->
      let out = run_shard ~procs ~plan program in
      Suite_parallel.check_same
        ~what:(Printf.sprintf "faulty p%d" procs)
        shard1 out)
    [ 2; 4 ]

(* Deterministic SIGKILL of the worker holding the Nth assignment: the
   killed worker is replaced, the instance re-dispatched and re-run from
   scratch, and both reports and counters match the kill-free shard run —
   re-dispatches surface only in the supervisor's own counters. *)
let test_shard_kill_nth () =
  let program = Suite_parallel.generated ~seed:22 in
  let base = run_shard ~procs:2 program in
  let out = run_shard ~procs:2 ~kill_nth:2 program in
  Suite_parallel.check_same ~what:"SIGKILL-on-2nd-assignment" base out;
  let reg = out.Suite_parallel.o_stats.Pipeline.registry in
  Alcotest.(check bool) "redispatch counter > 0" true
    (cval reg "supervisor.redispatches" > 0);
  Alcotest.(check bool) "the killed worker was reaped" true
    (cval reg "supervisor.kills" > 0);
  Alcotest.(check int) "zero lost instances" 0
    out.Suite_parallel.o_stats.Pipeline.n_inconclusive

(* Workers killed *mid-instance* (a crash plan detonates inside the engine,
   taking the worker process down) are re-dispatched from their checkpoint
   manifests: every attempt makes durable progress, the run completes with
   zero lost instances, and the reports equal a fault-free run's. *)
let test_shard_crash_mid_instance () =
  let program = Suite_parallel.generated ~seed:33 in
  let expect = Suite_parallel.run ~workers:1 program in
  let workdir = fresh_workdir () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.track_null = true;
      prefilter_properties = Checkers.fsms ();
      shard_procs = 2;
      heartbeat_ms = 20.;
      max_redispatch = 50;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  (* phases 0/1 run clean; the crash plan arms for the checking phase only *)
  let prepared = Pipeline.prepare ~config ~workdir program in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=2");
  let results, props, _schedule =
    Fun.protect
      ~finally:(fun () ->
        match saved with Some p -> Faults.install p | None -> Faults.clear ())
      (fun () -> Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
  in
  let stats = Pipeline.stats prepared props in
  Alcotest.(check string) "reports survive repeated worker crashes"
    expect.Suite_parallel.o_reports
    (Suite_parallel.render results);
  Alcotest.(check int) "zero lost instances" 0 stats.Pipeline.n_inconclusive;
  Alcotest.(check bool) "workers actually died and were re-dispatched" true
    (cval stats.Pipeline.registry "supervisor.redispatches" > 0)

(* Past the re-dispatch limit the instance degrades to [Inconclusive] —
   the same sound contract as budget exhaustion — and the run still ends. *)
let test_shard_degrade_to_inconclusive () =
  let program = Suite_parallel.generated ~seed:11 in
  let workdir = fresh_workdir () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.track_null = true;
      prefilter_properties = Checkers.fsms ();
      shard_procs = 1;
      heartbeat_ms = 20.;
      max_redispatch = 0;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=1");
  let results, props, _schedule =
    Fun.protect
      ~finally:(fun () ->
        match saved with Some p -> Faults.install p | None -> Faults.clear ())
      (fun () -> Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
  in
  let stats = Pipeline.stats prepared props in
  let rendered = Suite_parallel.render results in
  Alcotest.(check int) "every typestate instance degraded" 4
    stats.Pipeline.n_inconclusive;
  Alcotest.(check int) "supervisor accounted the degradations" 4
    (cval stats.Pipeline.registry "supervisor.degraded");
  Alcotest.(check bool) "inconclusive reports are visible in the output" true
    (contains rendered "inconclusive")

(* Budget exhaustion degrades an instance through the one shared path,
   whichever executor ran it: in-process and at two shard processes, the
   same [Inconclusive] reports, the same stats counters, and every
   degraded instance's [df-<name>] workdir swept. *)
let test_budget_degrade_both_executors () =
  let program = Suite_parallel.generated ~seed:11 in
  let run procs =
    let workdir = fresh_workdir () in
    let config =
      { (Pipeline.default_config ~workdir) with
        Pipeline.track_null = true;
        prefilter_properties = Checkers.fsms ();
        instance_edge_budget = 1;
        max_retries = 0;
        shard_procs = procs;
        heartbeat_ms = 20.;
        engine =
          { (Engine.default_config ~workdir) with
            Engine.retry_base_ms = 0.01 } }
    in
    let prepared = Pipeline.prepare ~config ~workdir program in
    let results, props, _ =
      Checkers.run_all_scheduled prepared (Checkers.all_with_null ())
    in
    let stats = Pipeline.stats prepared props in
    let warnings =
      List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 results
    in
    let left =
      List.concat_map
        (fun (pr : Pipeline.property_result) ->
          let name = pr.Pipeline.fsm.Fsm.name in
          let dir = Filename.concat workdir ("df-" ^ name) in
          if Sys.file_exists dir then
            List.map (fun f -> name ^ "/" ^ f) (Array.to_list (Sys.readdir dir))
          else [])
        props
    in
    ( Suite_parallel.render results,
      Printf.sprintf "%s bytes_read=%d bytes_written=%d"
        (Suite_parallel.counters stats ~warnings)
        stats.Pipeline.bytes_read stats.Pipeline.bytes_written,
      stats.Pipeline.n_inconclusive,
      left )
  in
  let text0, counters0, inconclusive0, left0 = run 0 in
  let text2, counters2, inconclusive2, left2 = run 2 in
  Alcotest.(check int) "every typestate instance degraded" 4 inconclusive0;
  Alcotest.(check bool) "inconclusive reports in the output" true
    (contains text0 "inconclusive");
  Alcotest.(check string) "reports: p2 = in-process" text0 text2;
  Alcotest.(check string) "stats: p2 = in-process" counters0 counters2;
  Alcotest.(check int) "inconclusive: p2 = in-process" inconclusive0
    inconclusive2;
  Alcotest.(check (list string)) "in-process workdirs swept" [] left0;
  Alcotest.(check (list string)) "p2 workdirs swept" [] left2

(* ---------------- frame checksums ---------------- *)

(* A damaged frame must never reach [Marshal]: the worker-side blocking
   reader raises [Closed] (the worker exits and is re-dispatched), and the
   coordinator-side drain reports the worker dead instead of yielding
   frames. *)
let test_frame_checksum_detects_corruption () =
  let module Sp = Engine.Shardproc in
  let b = Sp.frame_bytes (Sp.Heartbeat 7) in
  (* clean roundtrip through the coordinator-side nonblocking reader *)
  let r = Sp.reader () in
  let rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  ignore (Unix.write wr b 0 (Bytes.length b));
  (match (Sp.drain r rd : Sp.to_coordinator list * bool) with
  | [ Sp.Heartbeat 7 ], false -> ()
  | frames, dead ->
      Alcotest.failf "clean frame: %d frames, dead=%b" (List.length frames)
        dead);
  (* flip one payload bit: no frames, and the worker is declared dead *)
  let c = Bytes.copy b in
  Bytes.set c 5 (Char.chr (Char.code (Bytes.get c 5) lxor 0x40));
  ignore (Unix.write wr c 0 (Bytes.length c));
  (match (Sp.drain r rd : Sp.to_coordinator list * bool) with
  | [], true -> ()
  | frames, dead ->
      Alcotest.failf "corrupt frame: %d frames, dead=%b" (List.length frames)
        dead);
  Unix.close rd;
  Unix.close wr;
  (* worker side: a blocking read of the same damaged frame raises Closed
     rather than unmarshalling garbage *)
  let rd, wr = Unix.pipe () in
  ignore (Unix.write wr c 0 (Bytes.length c));
  (match (Sp.read_frame rd : Sp.to_coordinator) with
  | _ -> Alcotest.fail "corrupt frame unmarshalled"
  | exception Sp.Closed -> ());
  Unix.close rd;
  Unix.close wr

let suite =
  [ Alcotest.test_case "supervisor: tasks complete across workers" `Quick
      test_supervisor_completes;
    Alcotest.test_case "supervisor: re-dispatch after worker death" `Quick
      test_supervisor_redispatch_recovers;
    Alcotest.test_case "supervisor: degrade past the re-dispatch limit" `Quick
      test_supervisor_degrades_after_limit;
    Alcotest.test_case "supervisor: deadline kill and recovery" `Quick
      test_supervisor_deadline_kill;
    Alcotest.test_case "interrupt: flag set/raise/reset" `Quick
      test_interrupt_flag;
    Alcotest.test_case "differential: in-process vs 1/2/4 procs" `Quick
      test_shard_differential;
    Alcotest.test_case "differential: under a fault plan" `Quick
      test_shard_fault_plan_differential;
    Alcotest.test_case "SIGKILL-on-Nth-assignment: identical output" `Quick
      test_shard_kill_nth;
    Alcotest.test_case "crash mid-instance: resume from manifests" `Quick
      test_shard_crash_mid_instance;
    Alcotest.test_case "degraded mode: inconclusive past the limit" `Quick
      test_shard_degrade_to_inconclusive;
    Alcotest.test_case "degraded mode: budget, both executors" `Quick
      test_budget_degrade_both_executors;
    Alcotest.test_case "frame checksum: corruption is a dead peer" `Quick
      test_frame_checksum_detects_corruption;
    (* last: it spawns domains, after which this process can no longer
       fork shard workers *)
    Alcotest.test_case "differential: summary tier fan-out" `Slow
      test_summary_fanout_differential ]
