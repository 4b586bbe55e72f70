// One market cycle (§5.1–§5.3): directory lookup, request-for-bids fan-out,
// bid selection and the two-phase award. The Faucets Client runs it for its
// own jobs; the §5.3 broker agent runs the very same machine for the
// clients it serves. Owners differ only in the data of each round
// (credentials, evaluator, home cluster, whom the daemon notifies), and hear
// back through MarketCycle::Owner.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/market/evaluation.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/network.hpp"

namespace faucets {

/// How long a round waits for bids before evaluating what has arrived.
inline constexpr double kBidTimeout = 10.0;

/// The grid-wide retry counters (registered by name, so every entity shares
/// them) and the trace events of a retried exchange, recorded as `self`.
class RetryLog {
 public:
  explicit RetryLog(sim::Entity& self);

  /// A reply to `kind` from `peer` did not arrive in time.
  void timeout(sim::MessageKind kind, EntityId peer);
  /// The exchange is re-sent as attempt `attempt`.
  void retry(RequestId request, int attempt);
  /// The backoff schedule is spent after `attempts` tries.
  void exhausted(RequestId request, BidId bid, int attempts);

  [[nodiscard]] obs::Counter& attempts() const noexcept { return *attempts_; }

 private:
  sim::Entity* self_;
  obs::Counter* attempts_;
  obs::Counter* timeouts_;
  obs::Counter* exhausted_;
};

/// What the owner supplies for one round.
struct MarketOrder {
  qos::QosContract contract;
  SessionId session;
  std::string username;  // §2.2: credentials ride on every RFB and reserve
  std::string password;
  UserId user;
  const market::BidEvaluator* evaluator = nullptr;  // must outlive the round
  /// §5.5.3: a viable bid from this cluster wins before prices are compared.
  std::optional<ClusterId> home_cluster;
  /// Who the daemon notifies of completion or eviction, and under which id.
  /// Invalid = the owner itself, under the round's id.
  EntityId notify;
  RequestId notify_request;
  SpanId root;  // parent of the round's kRfb span
};

class MarketCycle {
 public:
  class Owner {
   public:
    /// A viable bid for `id` arrived while bids were still being collected.
    virtual void on_bid(RequestId /*id*/, const market::Bid& /*bid*/) {}
    /// `id`'s round ended: kPlaced, or kNoServers, kNoBids, kAllRefused or
    /// kTimedOut. The round's state (and any open kRfb span) stays, ignoring
    /// late replies, until the owner calls close().
    virtual void on_round_done(RequestId id, const proto::MarketResult& result) = 0;

   protected:
    ~Owner() = default;
  };

  /// `self` sends, schedules and records; `central` answers the directory
  /// requests; `retry` paces the directory and reserve/commit exchanges.
  MarketCycle(sim::Entity& self, Owner& owner, EntityId central, RetryPolicy retry);
  MarketCycle(const MarketCycle&) = delete;
  MarketCycle& operator=(const MarketCycle&) = delete;

  /// Open a round for `id` by asking the Central Server for matching
  /// servers. `id` travels on every message of the round; a previous round
  /// under the same id must have been closed.
  void start(RequestId id, MarketOrder order);

  /// Forget `id`'s round: cancel its timers and end its open spans. No-op
  /// for an unknown id.
  void close(RequestId id);

  /// Route a directory reply, bid, reserve reply or award ack to its round;
  /// false for any other kind of message.
  bool on_message(const sim::Message& msg);

  [[nodiscard]] RetryLog& retries() noexcept { return log_; }
  /// Bids discarded by market regulation (§5.5.1), counted per evaluation.
  [[nodiscard]] std::uint64_t regulated_out() const noexcept { return regulated_out_; }

 private:
  /// Where a round is in the two-phase award handshake.
  enum class AwardPhase { kNone, kReserving, kCommitting };

  struct Round {
    MarketOrder order;
    std::vector<market::Bid> bids;
    std::size_t expected_bids = 0;     // servers the RFB went to
    std::size_t viable_bids = 0;       // at the last evaluation
    bool awaiting_directory = false;   // dedup late/duplicate directory replies
    bool evaluated = false;            // late bids are ignored
    std::optional<proto::PriceBand> regulation;  // from the directory (§5.5.1)
    std::vector<BidId> refused;        // bids of daemons given up on
    sim::EventHandle bid_timer;
    AwardPhase phase = AwardPhase::kNone;
    market::Bid winner;                // the bid being reserved/committed
    ReservationId reservation;
    RetryState dir_retry;
    RetryState award_retry;
    SpanId rfb;    // the RFB round, child of order.root
    SpanId award;  // the current award attempt
  };

  [[nodiscard]] Round* find(RequestId id);
  void send_directory_request(RequestId id, Round& round);
  void on_directory_timeout(RequestId id);
  void handle_directory(const proto::DirectoryReply& msg);
  void handle_bid(const proto::BidReply& msg);
  void evaluate(RequestId id);
  /// The bids still eligible: refused and out-of-band ones marked declined.
  [[nodiscard]] std::vector<market::Bid> mask(Round& round);
  [[nodiscard]] std::optional<std::size_t> select(
      const Round& round, const std::vector<market::Bid>& candidates) const;
  void send_reserve(RequestId id, Round& round);
  void send_commit(RequestId id, Round& round);
  void handle_reserve_reply(const proto::ReserveReply& msg);
  void handle_award_ack(const proto::AwardAck& msg);
  void on_award_timeout(RequestId id);
  /// The winner's daemon refused or went silent: mark its bids refused and
  /// re-evaluate the rest — the paper's "award to the next-best bid".
  void give_up_on_winner(RequestId id, Round& round);
  /// The round's outcome so far: its viable bids and last selected winner.
  [[nodiscard]] static proto::MarketResult result_of(const Round& round,
                                                     proto::SubmissionStatus status);
  /// Hand a failed round to the owner (always the caller's last step: the
  /// owner may close the round).
  void finish(RequestId id, const Round& round, proto::SubmissionStatus status);

  sim::Entity& self_;
  Owner& owner_;
  sim::Network& network_;
  EntityId central_;
  RetryPolicy retry_;
  RetryLog log_;
  std::unordered_map<RequestId, Round> rounds_;
  std::uint64_t regulated_out_ = 0;
};

}  // namespace faucets
