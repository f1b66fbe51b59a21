(* Writing a checker of your own: Grapple takes (1) a program graph, (2) a
   set of types of interest and (3) an FSM over the events on those types
   (paper §1.2).  This example checks a database-transaction discipline:

       Idle --begin--> Active --commit/rollback--> Idle
       query is only legal while Active;
       a transaction must not be left Active at end of life.

   Everything below uses only the public API: the [Fsm] builder, the JIR
   parser, and [Grapple.Pipeline].

   Run with:  dune exec examples/custom_checker.exe                       *)

let transaction_fsm () : Fsm.t =
  let b = Fsm.builder "transaction" in
  Fsm.track b "Transaction";
  Fsm.initial b "Idle";
  Fsm.accepting b "Idle";
  Fsm.on b ~from:"Idle" ~event:"begin_" ~goto:"Active";
  Fsm.on b ~from:"Active" ~event:"query" ~goto:"Active";
  Fsm.on b ~from:"Active" ~event:"commit" ~goto:"Idle";
  Fsm.on b ~from:"Active" ~event:"rollback" ~goto:"Idle";
  (* events out of protocol are errors, not no-ops *)
  Fsm.on b ~from:"Idle" ~event:"query" ~goto:"Error";
  Fsm.on b ~from:"Idle" ~event:"commit" ~goto:"Error";
  Fsm.build b

let source = {|
class OrderService {
  void placeOrder(int amount) {
    Transaction tx = new Transaction();
    tx.begin_(1);
    tx.query(amount);
    if (amount > 100) {
      tx.commit(1);
    } else {
      tx.rollback(1);
    }
    return;
  }

  void auditOrder(int amount) {
    Transaction tx = new Transaction();
    tx.begin_(1);
    tx.query(amount);
    if (amount > 0) {
      tx.commit(1);
    }
    return;
  }

  void refundOrder(int amount) {
    Transaction tx = new Transaction();
    tx.query(amount);
    tx.begin_(1);
    tx.rollback(1);
    return;
  }
}

class Main {
  void main(int amount) {
    OrderService svc = new OrderService();
    svc.placeOrder(amount);
    svc.auditOrder(amount);
    svc.refundOrder(amount);
    return;
  }
}
entry Main.main;
|}

let () =
  let program = Jir.Resolve.parse_exn ~file:"orders.jir" source in
  let workdir = Filename.concat (Filename.get_temp_dir_name ()) "grapple-custom" in
  let prepared = Grapple.Pipeline.prepare ~workdir program in
  let result =
    List.hd
      (fst (Grapple.Pipeline.check_properties prepared [ transaction_fsm () ]))
  in
  Printf.printf "%d warning(s):\n" (List.length result.Grapple.Pipeline.reports);
  List.iter
    (fun r -> Printf.printf "  %s\n" (Grapple.Report.to_string r))
    result.Grapple.Pipeline.reports;
  print_newline ();
  print_endline
    "placeOrder commits or rolls back on every path: no warning.\n\
     auditOrder leaves the transaction Active when amount <= 0: leak.\n\
     refundOrder queries before begin_: error state."
