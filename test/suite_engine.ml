(* Tests for the disk-based engine: LRU cache, storage, partitioning,
   transitive closure with and without constraints, repartitioning, and the
   memoization counters. *)

module E = Pathenc.Encoding
module Pg = Cfl.Pointer_grammar
module AEngine = Engine.Make (Cfl.Pointer_grammar)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-engine-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

(* ---------------- LRU ---------------- *)

let test_lru_basic () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.add c "a" 1;
  Engine.Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Engine.Lru.find c "a");
  Engine.Lru.add c "c" 3;  (* evicts b: a was refreshed by the find *)
  Alcotest.(check (option int)) "b evicted" None (Engine.Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Engine.Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Engine.Lru.find c "c");
  Alcotest.(check int) "size" 2 (Engine.Lru.size c)

let test_lru_update () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.add c "a" 1;
  Engine.Lru.add c "a" 10;
  Alcotest.(check (option int)) "updated" (Some 10) (Engine.Lru.find c "a");
  Alcotest.(check int) "no duplicate" 1 (Engine.Lru.size c)

let test_lru_order () =
  let c = Engine.Lru.create 3 in
  Engine.Lru.add c 1 ();
  Engine.Lru.add c 2 ();
  Engine.Lru.add c 3 ();
  ignore (Engine.Lru.find c 1);
  Alcotest.(check (list int)) "mru order" [ 1; 3; 2 ] (Engine.Lru.keys c)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru capacity invariant" ~count:100
    QCheck.(list (pair (int_bound 20) (int_bound 100)))
    (fun ops ->
      let c = Engine.Lru.create 5 in
      List.iter (fun (k, v) -> Engine.Lru.add c k v) ops;
      Engine.Lru.size c <= 5)

(* ---------------- storage ---------------- *)

let test_storage_roundtrip () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "edges.bin" in
  let edges =
    [ { Engine.Storage.src = 1; dst = 2; label = 0;
        enc = [ E.Interval { meth = 0; first = 0; last = 3 } ] };
      { Engine.Storage.src = 1000; dst = 2000; label = 77;
        enc = [ E.Call 5; E.Ret 5 ] } ]
  in
  let _ = Engine.Storage.write_file ~path edges in
  let outcome = Engine.Storage.read_file ~path in
  Alcotest.(check int) "count" 2 (List.length outcome.Engine.Storage.edges);
  Alcotest.(check bool) "contents equal" true
    (outcome.Engine.Storage.edges = edges);
  Alcotest.(check bool) "intact" true (outcome.Engine.Storage.corrupt = None)

let test_storage_append () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "edges.bin" in
  let e n = { Engine.Storage.src = n; dst = n + 1; label = 1; enc = [] } in
  let _ = Engine.Storage.write_file ~path [ e 1 ] in
  let _ = Engine.Storage.append_file ~path [ e 2; e 3 ] in
  let back = (Engine.Storage.read_file ~path).Engine.Storage.edges in
  Alcotest.(check int) "three records" 3 (List.length back)

let test_storage_missing_file () =
  let outcome = Engine.Storage.read_file ~path:"/nonexistent/nowhere.bin" in
  Alcotest.(check int) "no edges" 0 (List.length outcome.Engine.Storage.edges);
  Alcotest.(check int) "no bytes" 0 outcome.Engine.Storage.bytes

(* ---------------- closure without constraints ---------------- *)

(* a trivially-true decode: every path is feasible *)
let true_decode (_ : E.t) = Smt.Formula.True

let mk_engine ?(config = None) () =
  let workdir = fresh_workdir () in
  let config =
    match config with
    | Some c -> { c with Engine.workdir }
    | None ->
        { (Engine.default_config ~workdir) with
          Engine.target_partitions = 2 }
  in
  AEngine.create ~config ~decode:true_decode ~workdir ()

let seed_chain t n =
  (* o --new--> v0 --assign--> v1 --assign--> ... --assign--> v(n-1) *)
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New
    ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ];
  for i = 1 to n - 1 do
    AEngine.add_seed t ~src:i ~dst:(i + 1) ~label:Pg.Assign
      ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ]
  done

let count_label t label =
  AEngine.fold_edges t
    (fun acc e -> if Pg.equal e.AEngine.label label then acc + 1 else acc)
    0

let test_closure_chain () =
  let t = mk_engine () in
  seed_chain t 5;
  AEngine.run t;
  (* flowsTo reaches every variable in the chain *)
  Alcotest.(check int) "flowsTo edges" 5 (count_label t Pg.Flows_to);
  (* each flowsTo has a mirrored bar edge *)
  Alcotest.(check int) "bar edges" 5 (count_label t Pg.Flows_to_bar);
  (* all pairs rooted at the object alias pairwise: 5x5 *)
  Alcotest.(check int) "alias edges" 25 (count_label t Pg.Alias)

let test_closure_store_load () =
  (* h1 = new H; w = new W; h1.f = w; h2 = h1; u = h2.f
     flowsTo(o_w, u) requires store/alias/load matching *)
  let t = mk_engine () in
  let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  let oh = 0 and h1 = 1 and ow = 2 and w = 3 and h2 = 4 and u = 5 in
  AEngine.add_seed t ~src:oh ~dst:h1 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:ow ~dst:w ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:w ~dst:h1 ~label:(Pg.Store 9) ~enc:iv;
  AEngine.add_seed t ~src:h1 ~dst:h2 ~label:Pg.Assign ~enc:iv;
  AEngine.add_seed t ~src:h2 ~dst:u ~label:(Pg.Load 9) ~enc:iv;
  AEngine.run t;
  let flows_to_u = ref false in
  AEngine.iter_result_edges t (fun e ->
      if Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.src = ow
         && e.AEngine.dst = u
      then flows_to_u := true);
  Alcotest.(check bool) "object flows through the heap" true !flows_to_u

let test_closure_field_mismatch () =
  let t = mk_engine () in
  let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:2 ~dst:3 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:3 ~dst:1 ~label:(Pg.Store 9) ~enc:iv;
  AEngine.add_seed t ~src:1 ~dst:4 ~label:(Pg.Load 8) ~enc:iv;
  AEngine.run t;
  let bad = ref false in
  AEngine.iter_result_edges t (fun e ->
      if Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.src = 2
         && e.AEngine.dst = 4
      then bad := true);
  Alcotest.(check bool) "different fields do not match" false !bad

let test_repartitioning () =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.target_partitions = 1;
      max_edges_per_partition = 8 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 20;
  AEngine.run t;
  Alcotest.(check bool) "partitions split" true (AEngine.n_partitions t > 1);
  Alcotest.(check bool) "repartitions counted" true
    (Engine.Metrics.count (AEngine.metrics t).Engine.Metrics.repartitions > 0);
  (* closure is still complete after splits *)
  Alcotest.(check int) "flowsTo complete" 20 (count_label t Pg.Flows_to);
  (* a split retires its pid for good: the checkpointed frontier keeps no
     pair of a pid that is gone *)
  match Engine.Manifest.load ~workdir with
  | None -> Alcotest.fail "no manifest after the run"
  | Some m ->
      let live pid =
        List.exists
          (fun p -> p.Engine.Manifest.pid = pid)
          m.Engine.Manifest.parts
      in
      Alcotest.(check bool) "frontier names live pids only" true
        (m.Engine.Manifest.processed <> []
        && List.for_all (fun ((a, b), _) -> live a && live b)
             m.Engine.Manifest.processed)

let test_cache_counters () =
  let workdir = fresh_workdir () in
  let t =
    AEngine.create
      ~config:{ (Engine.default_config ~workdir) with Engine.target_partitions = 2 }
      ~decode:true_decode ~workdir ()
  in
  seed_chain t 6;
  AEngine.run t;
  let m = AEngine.metrics t in
  Alcotest.(check bool) "lookups happened" true (Engine.Metrics.count m.Engine.Metrics.cache_lookups > 0);
  Alcotest.(check bool) "some hits" true (Engine.Metrics.count m.Engine.Metrics.cache_hits > 0);
  Alcotest.(check bool) "solved <= lookups" true
    (Engine.Metrics.count m.Engine.Metrics.constraints_solved
    <= Engine.Metrics.count m.Engine.Metrics.cache_lookups)

(* regression: [Metrics.time] used to drop the elapsed time when the timed
   function raised, under-reporting every component that ever aborted
   (budget exhaustion, injected faults) *)
let test_metrics_time_records_on_raise () =
  let m = Engine.Metrics.create () in
  (try
     Engine.Metrics.time m `Solve (fun () ->
         Unix.sleepf 0.02;
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "elapsed time survives the raise" true
    (Engine.Metrics.seconds m.Engine.Metrics.solve_s >= 0.01)

(* regression: the engine used to count a cache lookup (never a hit) even
   with [cache_enabled = false], reporting a fake 0% hit rate *)
let test_cache_disabled_counts_no_lookups () =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.target_partitions = 2;
      cache_enabled = false }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 6;
  AEngine.run t;
  let m = AEngine.metrics t in
  Alcotest.(check int) "no lookups against a disabled cache" 0
    (Engine.Metrics.count m.Engine.Metrics.cache_lookups);
  Alcotest.(check int) "no hits either" 0
    (Engine.Metrics.count m.Engine.Metrics.cache_hits);
  Alcotest.(check bool) "hit rate is None, not a fake 0%" true
    (Engine.Metrics.hit_rate m = None);
  Alcotest.(check bool) "work still happened" true
    (Engine.Metrics.count m.Engine.Metrics.constraints_solved > 0)

let test_constraint_pruning () =
  (* a decode that rejects any encoding mentioning node 13 *)
  let workdir = fresh_workdir () in
  let decode (enc : E.t) =
    let rec bad = function
      | [] -> false
      | E.Interval { last = 13; _ } :: _ -> true
      | _ :: tl -> bad tl
    in
    if bad enc then Smt.Formula.False else Smt.Formula.True
  in
  let t =
    AEngine.create
      ~config:{ (Engine.default_config ~workdir) with Engine.target_partitions = 1 }
      ~decode ~workdir ()
  in
  let iv last = [ E.Interval { meth = 0; first = 0; last } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:(iv 0);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 5);
  AEngine.add_seed t ~src:1 ~dst:3 ~label:Pg.Assign ~enc:(iv 13);
  AEngine.run t;
  let reaches dst =
    AEngine.fold_edges t
      (fun acc e ->
        acc
        || (Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.src = 0
            && e.AEngine.dst = dst))
      false
  in
  Alcotest.(check bool) "feasible branch kept" true (reaches 2);
  Alcotest.(check bool) "infeasible branch pruned" false (reaches 3)

let test_encodings_per_key_cap () =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.target_partitions = 1;
      max_encodings_per_key = 1 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  (* two parallel paths from o to v *)
  let iv last = [ E.Interval { meth = 0; first = 0; last } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:(iv 0);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 1);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 2);
  AEngine.run t;
  let count =
    AEngine.fold_edges t
      (fun acc e ->
        if Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.dst = 2 then
          acc + 1
        else acc)
      0
  in
  Alcotest.(check int) "one witness kept" 1 count

let test_metrics_breakdown_sums_to_100 () =
  let t = mk_engine () in
  seed_chain t 8;
  AEngine.run t;
  let parts = Engine.Metrics.breakdown (AEngine.metrics t) in
  let total = List.fold_left (fun a (_, p) -> a +. p) 0. parts in
  Alcotest.(check bool) "percentages sum to ~100" true
    (Float.abs (total -. 100.) < 1e-6 || total = 0.)

(* reference implementation: naive in-memory closure with the same label
   logic and no constraints, used to differential-test the disk engine *)
let reference_closure (seeds : (int * int * Pg.t) list) : (int * int * int) list =
  let present = Hashtbl.create 256 in
  let queue = Queue.create () in
  let by_src = Hashtbl.create 64 and by_dst = Hashtbl.create 64 in
  let push tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace tbl k (ref [ v ])
  in
  let rec add (src, dst, label) =
    let key = (src, dst, Pg.to_int label) in
    if not (Hashtbl.mem present key) then begin
      Hashtbl.replace present key ();
      push by_src src (dst, label);
      push by_dst dst (src, label);
      Queue.add (src, dst, label) queue;
      List.iter (fun l -> add (src, dst, l)) (Pg.unary label);
      match Pg.mirror label with
      | Some l -> add (dst, src, l)
      | None -> ()
    end
  in
  List.iter add seeds;
  while not (Queue.is_empty queue) do
    let src, dst, label = Queue.pop queue in
    (match Hashtbl.find_opt by_src dst with
    | Some outs ->
        List.iter
          (fun (dst2, l2) ->
            match Pg.compose label l2 with
            | Some l3 -> add (src, dst2, l3)
            | None -> ())
          !outs
    | None -> ());
    (match Hashtbl.find_opt by_dst src with
    | Some ins ->
        List.iter
          (fun (src0, l1) ->
            match Pg.compose l1 label with
            | Some l3 -> add (src0, dst, l3)
            | None -> ())
          !ins
    | None -> ())
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) present [] |> List.sort compare

let arb_graph =
  let open QCheck in
  let edge =
    Gen.map3
      (fun src dst kind ->
        let label =
          match kind mod 5 with
          | 0 -> Pg.New
          | 1 | 2 -> Pg.Assign
          | 3 -> Pg.Store (kind mod 2)
          | _ -> Pg.Load (kind mod 2)
        in
        (src, dst, label))
      (Gen.int_bound 8) (Gen.int_bound 8) (Gen.int_bound 20)
  in
  make
    ~print:(fun es ->
      String.concat ";"
        (List.map (fun (s, d, l) -> Printf.sprintf "%d-%s->%d" s (Pg.to_string l) d) es))
    (Gen.list_size (Gen.int_range 1 14) edge)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches in-memory reference closure" ~count:30
    arb_graph (fun edges ->
      let workdir = fresh_workdir () in
      let config =
        { (Engine.default_config ~workdir) with
          Engine.target_partitions = 3;
          max_edges_per_partition = 6;
          (* one witness per fact and no length cap: every fact keeps a
             composable encoding, so the closure is complete and bounded by
             the fact space even on cyclic graphs (unbounded witnesses blow
             up through Rev fragments) *)
          max_encodings_per_key = 1;
          max_path_elements = 0 }
      in
      let t = AEngine.create ~config ~decode:true_decode ~workdir () in
      List.iter
        (fun (src, dst, label) ->
          AEngine.add_seed t ~src ~dst ~label
            ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ])
        edges;
      AEngine.run t;
      let engine_facts =
        AEngine.fold_edges t
          (fun acc e -> (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label) :: acc)
          []
        |> List.sort_uniq compare
      in
      engine_facts = reference_closure edges)

(* property: closure results are independent of the partition budget *)
let prop_partitioning_invariance =
  QCheck.Test.make ~name:"closure independent of partitioning" ~count:8
    QCheck.(pair (int_range 2 12) (int_range 2 24))
    (fun (parts, budget) ->
      let t1 = mk_engine () in
      seed_chain t1 7;
      AEngine.run t1;
      let reference = count_label t1 Pg.Flows_to in
      let workdir = fresh_workdir () in
      let config =
        { (Engine.default_config ~workdir) with
          Engine.target_partitions = parts;
          max_edges_per_partition = budget }
      in
      let t2 = AEngine.create ~config ~decode:true_decode ~workdir () in
      seed_chain t2 7;
      AEngine.run t2;
      count_label t2 Pg.Flows_to = reference)

(* ---------------- the edge set and the chains ---------------- *)

module Eb = Engine.Edgebuf

(* Keys chosen to share their home slot at every table size up to 1024, so
   the set runs long probe chains (wrapping the table's end) through several
   resizes; every answer is checked against a [Hashtbl] reference. *)
let test_edge_set_collisions () =
  let b = Eb.create () in
  let ids =
    Array.init 4 (fun i ->
        Eb.intern_bytes b (String.make 1 (Char.chr (65 + i))))
  in
  let low = 1023 in
  (* edge keys colliding in the edge table *)
  let target = Eb.Set.hash ~src:0 ~dst:0 ~label:0 ~cid:ids.(0) land low in
  let edges = ref [] and cand = ref 0 in
  while List.length !edges < 200 do
    let c = !cand in
    incr cand;
    let src = c / 16 and dst = c mod 16 and label = c mod 3 in
    let cid = ids.(c mod 4) in
    if Eb.Set.hash ~src ~dst ~label ~cid land low = target then
      edges := (src, dst, label, cid) :: !edges
  done;
  (* (src, dst, label) keys colliding in the count table, each with one to
     four encodings *)
  let ktarget = Eb.Set.key_hash ~src:0 ~dst:0 ~label:0 land low in
  let triples = ref [] and cand = ref 0 in
  while List.length !triples < 60 do
    let c = !cand in
    incr cand;
    let src = 100_000 + (c / 8) and dst = c mod 8 and label = 7 in
    if Eb.Set.key_hash ~src ~dst ~label land low = ktarget then
      triples := (src, dst, label) :: !triples
  done;
  let keyed =
    List.concat
      (List.mapi
         (fun k (src, dst, label) ->
           List.init (1 + (k mod 4)) (fun e -> (src, dst, label, ids.(e))))
         !triples)
  in
  (* interleave both families, and push every edge twice *)
  let all = List.rev_append !edges keyed in
  let all = List.concat_map (fun e -> [ e; e ]) all in
  let st = Eb.Set.create b in
  let start_cap = Eb.Set.capacity st in
  let reference = Hashtbl.create 64 and counts = Hashtbl.create 64 in
  List.iter
    (fun (src, dst, label, cid) ->
      let fresh = not (Hashtbl.mem reference (src, dst, label, cid)) in
      Alcotest.(check bool) "push answers like the reference" fresh
        (Eb.Set.push st ~src ~dst ~label ~enc_id:cid);
      if fresh then begin
        Hashtbl.replace reference (src, dst, label, cid) ();
        let kept = Hashtbl.find_opt counts (src, dst, label) in
        Hashtbl.replace counts (src, dst, label)
          (1 + Option.value ~default:0 kept)
      end)
    all;
  Alcotest.(check bool) "at least three resizes" true
    (Eb.Set.capacity st >= 8 * start_cap);
  Alcotest.(check int) "size" (Hashtbl.length reference) (Eb.Set.size st);
  Alcotest.(check int) "one record per edge" (Hashtbl.length reference)
    (Eb.n b);
  List.iter
    (fun (src, dst, label, cid) ->
      Alcotest.(check bool) "member" true (Eb.Set.mem st ~src ~dst ~label ~cid);
      Alcotest.(check bool) "absent encoding" false
        (Eb.Set.mem st ~src ~dst ~label ~cid:(-1));
      Alcotest.(check bool) "absent key" false
        (Eb.Set.mem st ~src ~dst:(dst + 1000) ~label ~cid))
    all;
  Hashtbl.iter
    (fun (src, dst, label) n ->
      Alcotest.(check int) "encodings per key" n
        (Eb.Set.count st ~src ~dst ~label))
    counts;
  Alcotest.(check int) "unknown key counts zero" 0
    (Eb.Set.count st ~src:(-5) ~dst:0 ~label:0);
  (* a set rebuilt from the buffer agrees *)
  let st' = Eb.Set.of_buf b in
  Alcotest.(check int) "rebuilt size" (Eb.Set.size st) (Eb.Set.size st');
  Hashtbl.iter
    (fun (src, dst, label) n ->
      Alcotest.(check int) "rebuilt counts" n
        (Eb.Set.count st' ~src ~dst ~label))
    counts

(* [pool_append] keeps byte-equal encodings in separate slots; the set keys
   on the canonical slot, so they are one edge. *)
let test_edge_set_pool_duplicates () =
  let b = Eb.create () in
  let a0 = Eb.pool_append b "enc" in
  let a1 = Eb.pool_append b "enc" in
  let other = Eb.pool_append b "other" in
  Alcotest.(check bool) "separate slots" true (a0 <> a1);
  Eb.push b ~src:1 ~dst:2 ~label:3 ~enc_id:a0;
  Eb.push b ~src:1 ~dst:2 ~label:3 ~enc_id:a1;
  Eb.push b ~src:1 ~dst:2 ~label:3 ~enc_id:other;
  let st = Eb.Set.of_buf b in
  Alcotest.(check int) "byte-equal encodings are one edge" 2 (Eb.Set.size st);
  Alcotest.(check int) "and one encoding of the key" 2
    (Eb.Set.count st ~src:1 ~dst:2 ~label:3);
  Alcotest.(check bool) "found by bytes" true
    (Eb.Set.mem_bytes st ~src:1 ~dst:2 ~label:3 "enc");
  Alcotest.(check bool) "unknown bytes" false
    (Eb.Set.mem_bytes st ~src:1 ~dst:2 ~label:3 "none")

(* Chains list positions in insertion order, stop at [upto], and see edges
   appended after they were built. *)
let test_adjacency_chains () =
  let b = Eb.create () in
  let id = Eb.intern_bytes b "e" in
  List.iter
    (fun (src, dst) -> Eb.push b ~src ~dst ~label:0 ~enc_id:id)
    [ (10, 7); (11, 7); (10, 8); (12, 7); (10, 7) ];
  let adj = Eb.Adj.create b ~lo:10 ~hi:13 in
  let walk iter v ~upto =
    let out = ref [] in
    iter adj v ~upto (fun p -> out := p :: !out);
    List.rev !out
  in
  Alcotest.(check (list int)) "out of 10" [ 0; 2; 4 ]
    (walk Eb.Adj.iter_src 10 ~upto:max_int);
  Alcotest.(check (list int)) "into 7" [ 0; 1; 3; 4 ]
    (walk Eb.Adj.iter_dst 7 ~upto:max_int);
  Alcotest.(check (list int)) "into 7 below 3" [ 0; 1 ]
    (walk Eb.Adj.iter_dst 7 ~upto:3);
  Alcotest.(check (list int)) "vertex outside the range" []
    (walk Eb.Adj.iter_src 9 ~upto:max_int);
  Eb.push b ~src:10 ~dst:7 ~label:1 ~enc_id:id;
  Eb.Adj.sync adj;
  Alcotest.(check (list int)) "appended" [ 0; 2; 4; 5 ]
    (walk Eb.Adj.iter_src 10 ~upto:max_int);
  Alcotest.(check (list int)) "appended into 7" [ 0; 1; 3; 4; 5 ]
    (walk Eb.Adj.iter_dst 7 ~upto:max_int)

(* [insert] keeps at most [max_encodings_per_key] encodings per
   (src, dst, label), and never the same edge twice. *)
let test_insert_key_counts () =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.target_partitions = 1;
      max_encodings_per_key = 2 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  let iv last = [ E.Interval { meth = 0; first = 0; last } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:(iv 0);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 1);
  AEngine.preprocess t;
  let l = AEngine.load t (List.hd t.AEngine.parts) in
  let assign = Pg.to_int Pg.Assign in
  let insert last =
    AEngine.insert t l ~src:1 ~dst:2 ~label:assign
      ~bytes:(E.to_bytes (iv last)) ~enc:(iv last)
  in
  let count () = Eb.Set.count l.AEngine.set ~src:1 ~dst:2 ~label:assign in
  Alcotest.(check int) "the seed's encoding" 1 (count ());
  Alcotest.(check bool) "known edge" false (insert 1);
  Alcotest.(check bool) "second encoding" true (insert 5);
  Alcotest.(check int) "two kept" 2 (count ());
  Alcotest.(check bool) "over the cap" false (insert 6);
  Alcotest.(check int) "still two" 2 (count ());
  Alcotest.(check bool) "dirty after an insert" true l.AEngine.dirty;
  let last = ref (-1) in
  Eb.Adj.iter_src l.AEngine.adj 1 ~upto:max_int (fun p -> last := p);
  Alcotest.(check int) "chained last" (Eb.n l.AEngine.buf - 1) !last

(* A partition file holding a repeated record (no writer makes one, but a
   hand-edited file may) loads deduplicated and dirty, and the closure over
   it equals the closure over the clean file. *)
let test_load_duplicate_records () =
  let seed t =
    seed_chain t 6;
    AEngine.add_seed t ~src:3 ~dst:9 ~label:(Pg.Store 0)
      ~enc:[ E.Interval { meth = 0; first = 0; last = 1 } ];
    AEngine.add_seed t ~src:9 ~dst:10 ~label:Pg.Assign
      ~enc:[ E.Interval { meth = 0; first = 1; last = 2 } ]
  in
  let closure t =
    AEngine.fold_edges t
      (fun acc e ->
        (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label,
         E.to_bytes e.AEngine.enc)
        :: acc)
      []
    |> List.sort compare
  in
  let clean = mk_engine () in
  seed clean;
  AEngine.run clean;
  let t = mk_engine () in
  seed t;
  AEngine.preprocess t;
  let meta = List.hd t.AEngine.parts in
  let path = meta.AEngine.path in
  let raw = (Engine.Storage.read_flat ~path).Engine.Storage.buf in
  let n = Eb.n raw in
  Eb.push raw ~src:(Eb.src raw 0) ~dst:(Eb.dst raw 0) ~label:(Eb.label raw 0)
    ~enc_id:(Eb.enc_id raw 0);
  ignore (Engine.Storage.write_flat ~path raw);
  let l = AEngine.load t meta in
  Alcotest.(check int) "deduplicated" n (Eb.n l.AEngine.buf);
  Alcotest.(check int) "set size" n (Eb.Set.size l.AEngine.set);
  Alcotest.(check bool) "marked dirty" true l.AEngine.dirty;
  AEngine.checkpoint t (Hashtbl.create 1);
  AEngine.run ~resume:true t;
  let got = closure t in
  Alcotest.(check int) "no duplicate left" (List.length got)
    (List.length (List.sort_uniq compare got));
  Alcotest.(check bool) "same closure as the clean file" true
    (got = closure clean)

(* ---------------- residency under the memory budget ---------------- *)

(* Objects spread over the vertex range, each flowing into a shared chain
   of variables: every partition owns flowsTo facts of its objects and
   mirrored facts of its variables, so pairs route edges to each other. *)
let seed_spread t ~vars =
  let iv k = [ E.Interval { meth = 0; first = k; last = k } ] in
  for i = 0 to vars - 2 do
    AEngine.add_seed t ~src:(2 * i) ~dst:((2 * i) + 2) ~label:Pg.Assign
      ~enc:(iv (i land 3))
  done;
  for i = 0 to vars - 1 do
    if i mod 3 = 0 then
      AEngine.add_seed t ~src:((2 * i) + 1) ~dst:(2 * i) ~label:Pg.New
        ~enc:(iv 0)
  done

(* Run [seed_spread] to fixpoint under [max_edges_per_partition] and
   return what the run leaves behind: the folded edges, the counters, the
   partition files' bytes, and how often each partition file was read
   while the closure ran. *)
let run_with_budget ~max_edges =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.target_partitions = 4;
      max_edges_per_partition = max_edges }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_spread t ~vars:48;
  let reads = Hashtbl.create 16 in
  Engine.Faults.set_observer
    (Some
       (fun op path ->
         if op = Engine.Faults.Op_read && Filename.check_suffix path ".edges"
         then
           Hashtbl.replace reads path
             (1 + Option.value ~default:0 (Hashtbl.find_opt reads path))));
  Fun.protect
    ~finally:(fun () -> Engine.Faults.set_observer None)
    (fun () -> AEngine.run t);
  let m = AEngine.metrics t in
  let count c = Engine.Metrics.count c in
  let files =
    List.map
      (fun p ->
        In_channel.with_open_bin p.AEngine.path In_channel.input_all)
      t.AEngine.parts
  in
  let edges =
    AEngine.fold_edges t
      (fun acc e ->
        (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label,
         E.to_bytes e.AEngine.enc)
        :: acc)
      []
  in
  let sizes =
    List.map
      (fun p ->
        Eb.n (Engine.Storage.read_flat ~path:p.AEngine.path).Engine.Storage.buf)
      t.AEngine.parts
  in
  let result =
    ( edges,
      ( count m.Engine.Metrics.edges_added,
        count m.Engine.Metrics.bytes_written,
        count m.Engine.Metrics.pairs_processed,
        count m.Engine.Metrics.repartitions ),
      files,
      count m.Engine.Metrics.bytes_read,
      Hashtbl.fold (fun _ n acc -> max n acc) reads 0,
      sizes )
  in
  AEngine.cleanup t;
  result

(* Residency only saves reads.  With a budget that holds every partition,
   each partition file is read once; with one that holds little more than
   the current pair (no partition splits: the largest final partition is
   exactly [max_edges_per_partition]), partitions are evicted and read
   again.  The closure, its fold order, the counters and the partition
   files are the same either way. *)
let test_residency_budget () =
  let roomy, rcounts, rfiles, rread, rmax_reads, sizes =
    run_with_budget ~max_edges:100_000
  in
  Alcotest.(check int) "four partitions" 4 (List.length sizes);
  let largest = List.fold_left max 0 sizes in
  let tight, tcounts, tfiles, tread, tmax_reads, _ =
    run_with_budget ~max_edges:largest
  in
  let _, _, _, repart = tcounts in
  Alcotest.(check int) "no partition split" 0 repart;
  Alcotest.(check bool) "any third partition overflows the tight budget" true
    (List.for_all (fun n -> 3 * n > 2 * largest) sizes);
  Alcotest.(check bool) "same fold order" true (roomy = tight);
  Alcotest.(check bool) "same edges added, bytes written, pairs" true
    (rcounts = tcounts);
  Alcotest.(check bool) "same partition file bytes" true (rfiles = tfiles);
  Alcotest.(check int) "roomy: each partition file read once" 1 rmax_reads;
  Alcotest.(check bool) "tight: partitions read again" true (tmax_reads > 1);
  Alcotest.(check bool) "roomy budget reads less" true (rread < tread)

(* Routed edges into a parked partition land in its buffer and its file,
   without reading the file, deduplicated against what it holds; the
   partition rejoins a pair from memory with the new edges. *)
let test_flush_external_parked () =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with Engine.target_partitions = 3 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_spread t ~vars:12;
  AEngine.preprocess t;
  let pa, pc =
    match t.AEngine.parts with
    | [ pa; _; pc ] -> (pa, pc)
    | _ -> Alcotest.fail "expected three partitions"
  in
  ignore (AEngine.process_pair t pc pc ~counts:(0, 0));
  ignore (AEngine.process_pair t pa pa ~counts:(0, 0));
  let parked () =
    match
      List.find_map
        (fun (m, r) -> if m == pc then Some r else None)
        t.AEngine.resident
    with
    | Some (AEngine.Parked b) -> b
    | _ -> Alcotest.fail "the partition is not parked"
  in
  let before = Eb.n (parked ()) in
  let version = pc.AEngine.version in
  let enc = [ E.Interval { meth = 0; first = 9; last = 9 } ] in
  let edge =
    { AEngine.p_src = pc.AEngine.lo; p_dst = 1; p_label = Pg.to_int Pg.Assign;
      p_bytes = E.to_bytes enc }
  in
  let reads = ref 0 in
  Engine.Faults.set_observer
    (Some (fun op _ -> if op = Engine.Faults.Op_read then incr reads));
  Fun.protect
    ~finally:(fun () -> Engine.Faults.set_observer None)
    (fun () -> AEngine.flush_external t [ edge; edge ]);
  Alcotest.(check int) "no read" 0 !reads;
  Alcotest.(check int) "one edge landed" (before + 1) (Eb.n (parked ()));
  Alcotest.(check int) "version bumped" (version + 1) pc.AEngine.version;
  let on_disk =
    (Engine.Storage.read_flat ~path:pc.AEngine.path).Engine.Storage.buf
  in
  Alcotest.(check int) "written back" (before + 1) (Eb.n on_disk);
  AEngine.flush_external t [ edge ];
  Alcotest.(check int) "a known edge lands nothing" (version + 1)
    pc.AEngine.version;
  let l = AEngine.load_resident t pc in
  Alcotest.(check bool) "rejoins from memory, new edge included" true
    (Eb.Set.mem_bytes l.AEngine.set ~src:pc.AEngine.lo ~dst:1
       ~label:(Pg.to_int Pg.Assign) (E.to_bytes enc));
  AEngine.cleanup t

(* [grapple check --checkers all --paths] output, byte for byte, against
   copies recorded before the engine's indexes became insertion-ordered
   chains: which witness survives [max_encodings_per_key] depends on the
   join's candidate order and the insertion order, so any change to either
   shows up here.  Runs the CLI on the paper's example and on the printed
   minizk, minihadoop and minihdfs subjects; minihdfs is the one whose
   traces move when the join visits partners in another order. *)
let test_check_paths_golden () =
  let here = Filename.dirname Sys.executable_name in
  let exe = Filename.concat here "../bin/grapple_cli.exe" in
  let dir = fresh_workdir () in
  let run cmd =
    let ic =
      Unix.open_process_in
        (Printf.sprintf "cd %s && %s 2>/dev/null" (Filename.quote dir) cmd)
    in
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "command failed: %s" cmd);
    out
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path s =
    Out_channel.with_open_bin path (fun oc -> output_string oc s)
  in
  write (Filename.concat dir "figure3b.jir")
    (read (Filename.concat here "../examples/figure3b.jir"));
  List.iter
    (fun name ->
      ignore
        (run
           (Printf.sprintf "%s gen %s -o %s.jir" (Filename.quote exe) name
              name)))
    [ "minizk"; "minihadoop"; "minihdfs" ];
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " byte-identical to the golden output")
        (read (Filename.concat here ("golden/check_paths_" ^ name ^ ".txt")))
        (run
           (Printf.sprintf "%s check %s.jir --checkers all --paths --workers 2"
              (Filename.quote exe) name)))
    [ "figure3b"; "minizk"; "minihadoop"; "minihdfs" ]

let suite =
  [ Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru update" `Quick test_lru_update;
    Alcotest.test_case "lru order" `Quick test_lru_order;
    QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip;
    Alcotest.test_case "storage append" `Quick test_storage_append;
    Alcotest.test_case "storage missing file" `Quick test_storage_missing_file;
    Alcotest.test_case "closure over a chain" `Quick test_closure_chain;
    Alcotest.test_case "closure through the heap" `Quick test_closure_store_load;
    Alcotest.test_case "field mismatch" `Quick test_closure_field_mismatch;
    Alcotest.test_case "eager repartitioning" `Quick test_repartitioning;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
    Alcotest.test_case "metrics time on raise" `Quick
      test_metrics_time_records_on_raise;
    Alcotest.test_case "disabled cache counts nothing" `Quick
      test_cache_disabled_counts_no_lookups;
    Alcotest.test_case "constraint pruning" `Quick test_constraint_pruning;
    Alcotest.test_case "encodings-per-key cap" `Quick test_encodings_per_key_cap;
    Alcotest.test_case "breakdown sums to 100" `Quick test_metrics_breakdown_sums_to_100;
    Alcotest.test_case "edge set colliding keys" `Quick
      test_edge_set_collisions;
    Alcotest.test_case "edge set pool duplicates" `Quick
      test_edge_set_pool_duplicates;
    Alcotest.test_case "adjacency chains" `Quick test_adjacency_chains;
    Alcotest.test_case "insert key counts" `Quick test_insert_key_counts;
    Alcotest.test_case "load duplicate records" `Quick
      test_load_duplicate_records;
    Alcotest.test_case "residency budget" `Quick test_residency_budget;
    Alcotest.test_case "flush into a parked partition" `Quick
      test_flush_external_parked;
    Alcotest.test_case "check --paths golden output" `Quick
      test_check_paths_golden;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_partitioning_invariance ]
