#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace systolize {
namespace {

// NOTE: coroutine bodies are free functions taking everything by value or
// by pointer — coroutine parameters are copied into the frame, whereas a
// capturing lambda coroutine would dangle once its closure dies.

Task sender_body(Ctx ctx, Channel* chan, std::vector<Value> values) {
  for (Value v : values) co_await ctx.send(*chan, v);
}

Task receiver_body(Ctx ctx, Channel* chan, std::size_t count,
                   std::vector<Value>* out) {
  for (std::size_t i = 0; i < count; ++i) {
    Value v = 0;
    co_await ctx.recv(*chan, v);
    out->push_back(v);
  }
}

Task relay_plus_one_body(Ctx ctx, Channel* in, Channel* out, int count) {
  for (int i = 0; i < count; ++i) {
    Value v = 0;
    co_await ctx.recv(*in, v);
    co_await ctx.send(*out, v + 1);
  }
}

Task recv_then_send_body(Ctx ctx, Channel* in, Channel* out) {
  Value v = 0;
  co_await ctx.recv(*in, v);
  co_await ctx.send(*out, v);
}

Task send_then_recv_body(Ctx ctx, Channel* out, Channel* in) {
  co_await ctx.send(*out, 7);
  Value v = 0;
  co_await ctx.recv(*in, v);
}

Task par_recv_two_body(Ctx ctx, Channel* a, Channel* b, Value* got_a,
                       Value* got_b) {
  std::vector<CommOp> ops;
  ops.push_back(ctx.recv_op(*a, *got_a));
  ops.push_back(ctx.recv_op(*b, *got_b));
  co_await ctx.par(std::move(ops));
}

Task par_send_two_body(Ctx ctx, Channel* a, Channel* b, Value va, Value vb) {
  std::vector<CommOp> ops;
  ops.push_back(ctx.send_op(*a, va));
  ops.push_back(ctx.send_op(*b, vb));
  co_await ctx.par(std::move(ops));
}

Task recv_one_body(Ctx ctx, Channel* chan, Value* out) {
  co_await ctx.recv(*chan, *out);
}

Task send_then_tick_body(Ctx ctx, Channel* chan) {
  co_await ctx.send(*chan, 1);
  ctx.tick_statement();
}

Task throwing_body(Ctx ctx) {
  (void)ctx;
  raise(ErrorKind::Validation, "intentional");
  co_return;  // unreachable; makes this a coroutine
}

Task fixed_relay_body(Ctx ctx, Channel* in, Channel* out, Value count) {
  for (Value k = 0; k < count; ++k) {
    Value v = 0;
    co_await ctx.recv(*in, v);
    co_await ctx.send(*out, v);
  }
}

TEST(Scheduler, SimpleRendezvousTransfersInOrder) {
  Scheduler sched;
  Channel& chan = sched.make_channel("c");
  std::vector<Value> got;
  Channel* cp = &chan;
  std::vector<Value>* gp = &got;
  sched.spawn("tx", [cp](Ctx ctx) {
    return sender_body(ctx, cp, {1, 2, 3});
  });
  sched.spawn("rx", [cp, gp](Ctx ctx) { return receiver_body(ctx, cp, 3, gp); });
  sched.run();
  EXPECT_EQ(got, (std::vector<Value>{1, 2, 3}));
  EXPECT_EQ(chan.transfers(), 3);
  EXPECT_EQ(sched.total_transfers(), 3);
}

TEST(Scheduler, ReceiverFirstAlsoWorks) {
  Scheduler sched;
  Channel* chan = &sched.make_channel("c");
  std::vector<Value> got;
  std::vector<Value>* gp = &got;
  sched.spawn("rx",
              [chan, gp](Ctx ctx) { return receiver_body(ctx, chan, 2, gp); });
  sched.spawn("tx", [chan](Ctx ctx) { return sender_body(ctx, chan, {7, 9}); });
  sched.run();
  EXPECT_EQ(got, (std::vector<Value>{7, 9}));
}

TEST(Scheduler, PipelineThroughMiddleProcess) {
  Scheduler sched;
  Channel* a = &sched.make_channel("a");
  Channel* b = &sched.make_channel("b");
  std::vector<Value> got;
  std::vector<Value>* gp = &got;
  sched.spawn("tx", [a](Ctx ctx) { return sender_body(ctx, a, {10, 20, 30}); });
  sched.spawn("mid",
              [a, b](Ctx ctx) { return relay_plus_one_body(ctx, a, b, 3); });
  sched.spawn("rx", [b, gp](Ctx ctx) { return receiver_body(ctx, b, 3, gp); });
  sched.run();
  EXPECT_EQ(got, (std::vector<Value>{11, 21, 31}));
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler sched;
  Channel* a = &sched.make_channel("a");
  Channel* b = &sched.make_channel("b");
  // Two processes each receiving from the other first: classic cycle.
  sched.spawn("p1", [a, b](Ctx ctx) { return recv_then_send_body(ctx, a, b); });
  sched.spawn("p2", [a, b](Ctx ctx) { return recv_then_send_body(ctx, b, a); });
  try {
    sched.run();
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Runtime);
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Scheduler, SendSendCycleNamesBothBlockedProcesses) {
  Scheduler sched;
  Channel* a = &sched.make_channel("a");
  Channel* b = &sched.make_channel("b");
  // Each process offers its send first: neither receive is ever reached,
  // so the two sends wait on each other forever.
  sched.spawn("p1", [a, b](Ctx ctx) { return send_then_recv_body(ctx, a, b); });
  sched.spawn("p2", [a, b](Ctx ctx) { return send_then_recv_body(ctx, b, a); });
  try {
    sched.run();
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Runtime);
    std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("p1"), std::string::npos) << what;
    EXPECT_NE(what.find("p2"), std::string::npos) << what;
    EXPECT_NE(what.find("send a"), std::string::npos) << what;
    EXPECT_NE(what.find("send b"), std::string::npos) << what;
  }
}

TEST(Scheduler, ShortSendDeadlocksWhenReceiverExpectsMore) {
  // Failure injection: a protocol count mismatch must not pass silently.
  Scheduler sched;
  Channel* chan = &sched.make_channel("c");
  std::vector<Value> got;
  std::vector<Value>* gp = &got;
  sched.spawn("tx", [chan](Ctx ctx) { return sender_body(ctx, chan, {1}); });
  sched.spawn("rx",
              [chan, gp](Ctx ctx) { return receiver_body(ctx, chan, 2, gp); });
  EXPECT_THROW(sched.run(), Error);
}

TEST(Scheduler, ParCompletesRegardlessOfPartnerOrder) {
  Scheduler sched;
  Channel* a = &sched.make_channel("a");
  Channel* b = &sched.make_channel("b");
  Value got_a = 0;
  Value got_b = 0;
  Value* pa = &got_a;
  Value* pb = &got_b;
  sched.spawn("rx", [a, b, pa, pb](Ctx ctx) {
    return par_recv_two_body(ctx, a, b, pa, pb);
  });
  sched.spawn("tx_b", [b](Ctx ctx) { return sender_body(ctx, b, {200}); });
  sched.spawn("tx_a", [a](Ctx ctx) { return sender_body(ctx, a, {100}); });
  sched.run();
  EXPECT_EQ(got_a, 100);
  EXPECT_EQ(got_b, 200);
}

TEST(Scheduler, ParSendUnblocksCrossedReceivers) {
  Scheduler sched;
  Channel* a = &sched.make_channel("a");
  Channel* b = &sched.make_channel("b");
  Value va = 0;
  Value vb = 0;
  Value* ppa = &va;
  Value* ppb = &vb;
  sched.spawn("p1",
              [a, b](Ctx ctx) { return par_send_two_body(ctx, a, b, 1, 2); });
  sched.spawn("p2", [b, ppb](Ctx ctx) { return recv_one_body(ctx, b, ppb); });
  sched.spawn("p3", [a, ppa](Ctx ctx) { return recv_one_body(ctx, a, ppa); });
  sched.run();
  EXPECT_EQ(va, 1);
  EXPECT_EQ(vb, 2);
}

TEST(Scheduler, BufferedChannelDecouplesSender) {
  Scheduler sched;
  Channel* chan = &sched.make_channel("c", /*capacity=*/2);
  std::vector<Value> got;
  std::vector<Value>* gp = &got;
  // With capacity 2, the sender can finish before the receiver starts.
  sched.spawn("tx", [chan](Ctx ctx) { return sender_body(ctx, chan, {5, 6}); });
  sched.spawn("rx",
              [chan, gp](Ctx ctx) { return receiver_body(ctx, chan, 2, gp); });
  sched.run();
  EXPECT_EQ(got, (std::vector<Value>{5, 6}));
}

TEST(Scheduler, LogicalClockAdvancesPerRendezvousAndStatement) {
  Scheduler sched;
  Channel* chan = &sched.make_channel("c");
  Value sink = 0;
  Value* ps = &sink;
  sched.spawn("tx", [chan](Ctx ctx) { return send_then_tick_body(ctx, chan); });
  sched.spawn("rx", [chan, ps](Ctx ctx) { return recv_one_body(ctx, chan, ps); });
  sched.run();
  // One rendezvous at t=1, one statement afterwards: makespan 2.
  EXPECT_EQ(sched.makespan(), 2);
}

TEST(Scheduler, ProcessExceptionPropagates) {
  Scheduler sched;
  sched.spawn("boom", [](Ctx ctx) { return throwing_body(ctx); });
  try {
    sched.run();
    FAIL() << "expected propagated exception";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
  }
}

TEST(Scheduler, ManyProcessChain) {
  // A 200-stage pipeline moving 50 values end to end.
  Scheduler sched;
  constexpr int kStages = 200;
  constexpr Value kValues = 50;
  std::vector<Channel*> chans;
  chans.reserve(kStages + 1);
  for (int i = 0; i <= kStages; ++i) {
    chans.push_back(
        &sched.make_channel(std::string("c").append(std::to_string(i))));
  }
  std::vector<Value> vals;
  for (Value v = 0; v < kValues; ++v) vals.push_back(v);
  Channel* head = chans[0];
  sched.spawn("tx", [head, vals](Ctx ctx) {
    return sender_body(ctx, head, vals);
  });
  for (int i = 0; i < kStages; ++i) {
    Channel* in = chans[i];
    Channel* out = chans[i + 1];
    sched.spawn("st" + std::to_string(i), [in, out](Ctx ctx) {
      return fixed_relay_body(ctx, in, out, kValues);
    });
  }
  std::vector<Value> got;
  std::vector<Value>* gp = &got;
  Channel* tail = chans[kStages];
  sched.spawn("rx", [tail, gp](Ctx ctx) {
    return receiver_body(ctx, tail, kValues, gp);
  });
  sched.run();
  EXPECT_EQ(got, vals);
  EXPECT_EQ(sched.total_transfers(), kValues * (kStages + 1));
}

}  // namespace
}  // namespace systolize
