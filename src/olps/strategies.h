#ifndef CIT_OLPS_STRATEGIES_H_
#define CIT_OLPS_STRATEGIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "env/backtest.h"
#include "market/source.h"
#include "math/rng.h"

namespace cit::olps {

// Base for online portfolio-selection strategies. Subclasses implement
// Rebalance() which sees the panel up to `day` (inclusive) and the weights
// played at the previous period; the base class handles first-call
// initialization to the uniform portfolio.
class OlpsStrategy : public env::TradingAgent {
 public:
  void Reset() override;

  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) final;

 protected:
  // Next-period weights; `last_weights` is what was played last period and
  // `last_relatives` the realized price relatives since then (empty on the
  // first call after the initial uniform period).
  virtual std::vector<double> Rebalance(
      const market::PanelView& panel, int64_t day,
      const std::vector<double>& last_weights,
      const std::vector<double>& last_relatives) = 0;

 private:
  bool initialized_ = false;
  int64_t last_day_ = -1;
  std::vector<double> last_weights_;
};

// Market baseline: equal-dollar buy and hold from the first decision day;
// weights drift with prices thereafter (zero turnover).
class BuyAndHold : public env::TradingAgent {
 public:
  std::string name() const override { return "Market"; }
  void Reset() override { start_day_ = -1; }
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

 private:
  int64_t start_day_ = -1;
};

// Constant rebalanced portfolio (Cover & Gluss): rebalance to the uniform
// portfolio every period.
class Crp : public OlpsStrategy {
 public:
  std::string name() const override { return "CRP"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView&, int64_t,
                                const std::vector<double>&,
                                const std::vector<double>&) override;
};

// Exponential gradient (Helmbold et al. 1998):
//   w_i <- w_i * exp(eta * x_i / (w.x)) / Z.
class Eg : public OlpsStrategy {
 public:
  explicit Eg(double eta = 0.05) : eta_(eta) {}
  std::string name() const override { return "EG"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView&, int64_t,
                                const std::vector<double>& last_weights,
                                const std::vector<double>& last_relatives)
      override;

 private:
  double eta_;
};

// Online Newton step (Agarwal et al. 2006) with L2-regularized second-order
// updates and projection in the A-norm.
class Ons : public OlpsStrategy {
 public:
  Ons(double eta = 0.0, double beta = 1.0, double delta = 0.125);
  std::string name() const override { return "ONS"; }
  void Reset() override;

 protected:
  std::vector<double> Rebalance(const market::PanelView&, int64_t,
                                const std::vector<double>& last_weights,
                                const std::vector<double>& last_relatives)
      override;

 private:
  double eta_;
  double beta_;
  double delta_;
  std::vector<double> a_;  // n x n accumulated Hessian + I
  std::vector<double> b_;  // accumulated scaled gradients
  bool state_ready_ = false;
};

// Cover's universal portfolio, approximated by wealth-weighting `samples`
// CRP managers drawn uniformly from the simplex (Dirichlet(1)), the
// standard Monte-Carlo implementation.
class Up : public OlpsStrategy {
 public:
  explicit Up(int64_t samples = 500, uint64_t seed = 99);
  std::string name() const override { return "UP"; }
  void Reset() override;

 protected:
  std::vector<double> Rebalance(const market::PanelView&, int64_t,
                                const std::vector<double>&,
                                const std::vector<double>& last_relatives)
      override;

 private:
  int64_t samples_;
  uint64_t seed_;
  std::vector<std::vector<double>> managers_;  // [samples][assets]
  std::vector<double> manager_wealth_;
};

// Online moving-average reversion (Li & Hoi 2012), OLMAR-1:
// predicted relative from a w-day moving average, passive-aggressive step
// toward expected return >= epsilon.
class Olmar : public OlpsStrategy {
 public:
  Olmar(int64_t ma_window = 5, double epsilon = 10.0)
      : ma_window_(ma_window), epsilon_(epsilon) {}
  std::string name() const override { return "OLMAR"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>& last_weights,
                                const std::vector<double>&) override;

 private:
  int64_t ma_window_;
  double epsilon_;
};

// Passive-aggressive mean reversion (Li et al. 2012), PAMR-0.
class Pamr : public OlpsStrategy {
 public:
  explicit Pamr(double epsilon = 0.5) : epsilon_(epsilon) {}
  std::string name() const override { return "PAMR"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView&, int64_t,
                                const std::vector<double>& last_weights,
                                const std::vector<double>& last_relatives)
      override;

 private:
  double epsilon_;
};

// Robust median reversion (Huang et al. 2013): OLMAR with the moving-average
// price estimate replaced by the L1-median of the trailing window.
class Rmr : public OlpsStrategy {
 public:
  Rmr(int64_t window = 5, double epsilon = 5.0)
      : window_(window), epsilon_(epsilon) {}
  std::string name() const override { return "RMR"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>& last_weights,
                                const std::vector<double>&) override;

 private:
  int64_t window_;
  double epsilon_;
};

// Anti-correlation (Borodin et al. 2004): transfers wealth between assets
// based on lagged cross-correlations over two adjacent windows.
class Anticor : public OlpsStrategy {
 public:
  explicit Anticor(int64_t window = 8) : window_(window) {}
  std::string name() const override { return "Anticor"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>& last_weights,
                                const std::vector<double>&) override;

 private:
  int64_t window_;
};

// Correlation-driven nonparametric learning (Li et al. 2011, CORN): finds
// historical windows correlated with the current market window (Pearson
// corr >= `rho` over the concatenated per-asset relatives) and plays the
// log-optimal portfolio over the days that followed those windows.
class Corn : public OlpsStrategy {
 public:
  Corn(int64_t window = 5, double rho = 0.2, int64_t opt_iters = 60)
      : window_(window), rho_(rho), opt_iters_(opt_iters) {}
  std::string name() const override { return "CORN"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>& last_weights,
                                const std::vector<double>&) override;

 private:
  int64_t window_;
  double rho_;
  int64_t opt_iters_;
};

// Naive momentum: all wealth on the asset with the best cumulative return
// over the trailing window.
class BestStock : public OlpsStrategy {
 public:
  explicit BestStock(int64_t window = 30) : window_(window) {}
  std::string name() const override { return "BestStock"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>&,
                                const std::vector<double>&) override;

 private:
  int64_t window_;
};

// Follow-the-leader: plays the best constant rebalanced portfolio in
// hindsight over all data seen so far (the online analogue of BCRP),
// found by projected gradient ascent on the log-wealth objective.
class FollowTheLeader : public OlpsStrategy {
 public:
  explicit FollowTheLeader(int64_t opt_iters = 40)
      : opt_iters_(opt_iters) {}
  std::string name() const override { return "FTL"; }

 protected:
  std::vector<double> Rebalance(const market::PanelView& panel, int64_t day,
                                const std::vector<double>& last_weights,
                                const std::vector<double>&) override;

 private:
  int64_t opt_iters_;
};

// Maximizes sum_t log(b . x_t) over the simplex for the given price-relative
// rows via projected gradient ascent; `start` is the initial point (uniform
// when empty). Exposed for CORN/FTL and for tests.
std::vector<double> LogOptimalPortfolio(
    const std::vector<std::vector<double>>& relatives,
    std::vector<double> start, int64_t iters);

}  // namespace cit::olps

#endif  // CIT_OLPS_STRATEGIES_H_
