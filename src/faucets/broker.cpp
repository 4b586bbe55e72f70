#include "src/faucets/broker.hpp"

#include "src/sim/context.hpp"

namespace faucets {

BrokerAgent::BrokerAgent(sim::SimContext& ctx, EntityId central, BrokerConfig config)
    : sim::Entity("broker", ctx),
      network_(&ctx.network()),
      cycle_(*this, *this, central, config.retry) {
  network_->attach(*this);
}

const market::BidEvaluator& BrokerAgent::evaluator_for(
    proto::SelectionCriteria criteria) const {
  switch (criteria) {
    case proto::SelectionCriteria::kLeastCost:
      return least_cost_;
    case proto::SelectionCriteria::kEarliestCompletion:
      return earliest_completion_;
    case proto::SelectionCriteria::kSurplus:
      return surplus_;
  }
  return least_cost_;
}

void BrokerAgent::on_message(const sim::Message& msg) {
  if (msg.kind() == sim::MessageKind::kSubmit) {
    handle_submit(sim::message_cast<proto::SubmitJobRequest>(msg));
    return;
  }
  (void)cycle_.on_message(msg);
}

void BrokerAgent::handle_submit(const proto::SubmitJobRequest& msg) {
  const auto key = std::make_pair(msg.from, msg.request);
  // A resend while the original cycle is still running: the answer is on its
  // way, starting a second market cycle would double-award the job.
  if (active_.contains(key)) return;
  // A resend of the same attempt after we already answered means our reply
  // was lost in transit: re-send the cached reply verbatim instead of
  // re-running the market. A higher attempt is a genuine resubmission (the
  // job was evicted, or the client opened a fresh bidding round) and gets a
  // whole new market cycle.
  if (auto done = replied_.find(key); done != replied_.end()) {
    if (msg.attempt <= done->second.first) {
      network_->send(*this, msg.from,
                     std::make_unique<proto::SubmitJobReply>(done->second.second));
      return;
    }
    replied_.erase(done);
  }

  ++submissions_;
  const RequestId id = ids_.next();  // broker-side: replies correlate back to us
  pending_.emplace(id, Pending{msg.from, msg.request, msg.attempt});
  active_.emplace(key, id);
  MarketOrder order;
  order.contract = msg.contract;
  order.session = msg.session;
  order.username = msg.username;
  order.password = msg.password;
  order.user = msg.user;
  order.evaluator = &evaluator_for(msg.criteria);
  order.home_cluster = msg.home_cluster;
  order.notify = msg.from;  // completion notices bypass the broker
  order.notify_request = msg.request;
  order.root = msg.span;
  cycle_.start(id, std::move(order));
}

void BrokerAgent::on_round_done(RequestId id, const proto::MarketResult& result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const Pending client = it->second;
  pending_.erase(it);
  if (result.status == proto::SubmissionStatus::kPlaced) {
    ++placed_;
  } else {
    ++failed_;
  }
  cycle_.close(id);
  const auto key = std::make_pair(client.client, client.client_request);
  proto::SubmitJobReply reply;
  reply.request = client.client_request;
  reply.result = result;
  replied_[key] = {client.client_attempt, reply};
  network_->send(*this, client.client,
                 std::make_unique<proto::SubmitJobReply>(std::move(reply)));
  active_.erase(key);
}

}  // namespace faucets
