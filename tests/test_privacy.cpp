// Unit tests for the privacy module: Laplace/Gaussian mechanisms, the
// per-frame budget ledger (Algorithm 1), and the Appendix C degradation
// curve.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "privacy/budget.hpp"
#include "privacy/degradation.hpp"
#include "privacy/gaussian.hpp"
#include "privacy/laplace.hpp"

namespace privid {
namespace {

// ------------------------------------------------------------- Laplace

TEST(Laplace, NoiseScale) {
  EXPECT_DOUBLE_EQ(LaplaceMechanism::noise_scale(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(LaplaceMechanism::noise_scale(0, 1), 0.0);
  EXPECT_THROW(LaplaceMechanism::noise_scale(-1, 1), ArgumentError);
  EXPECT_THROW(LaplaceMechanism::noise_scale(1, 0), ArgumentError);
}

TEST(Laplace, ZeroSensitivityIsExact) {
  Rng rng(1);
  // The rho = 0 masking case (Q10-Q12): nothing private influences the
  // result, so it is released exactly.
  EXPECT_DOUBLE_EQ(LaplaceMechanism::release(42.0, 0.0, 1.0, rng), 42.0);
}

TEST(Laplace, NoiseCentredOnRaw) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(LaplaceMechanism::release(100.0, 5.0, 1.0, rng));
  }
  EXPECT_NEAR(mean(xs), 100.0, 0.3);
  // Variance of Laplace(b=5) is 2*25 = 50.
  EXPECT_NEAR(variance(xs), 50.0, 5.0);
}

TEST(Laplace, ConfidenceHalfwidthCoverage) {
  Rng rng(13);
  double hw = LaplaceMechanism::confidence_halfwidth(10, 1, 0.99);
  EXPECT_NEAR(hw, 10 * std::log(100.0), 1e-9);
  int inside = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = LaplaceMechanism::release(0.0, 10.0, 1.0, rng);
    if (std::abs(x) <= hw) ++inside;
  }
  EXPECT_NEAR(static_cast<double>(inside) / kN, 0.99, 0.005);
}

TEST(Laplace, ConfidenceValidation) {
  EXPECT_THROW(LaplaceMechanism::confidence_halfwidth(1, 1, 0.0),
               ArgumentError);
  EXPECT_THROW(LaplaceMechanism::confidence_halfwidth(1, 1, 1.0),
               ArgumentError);
}

// Parameterized: noise scale grows linearly with sensitivity, inversely
// with epsilon.
class LaplaceScaling
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LaplaceScaling, ScaleIsDeltaOverEpsilon) {
  auto [delta, eps] = GetParam();
  EXPECT_DOUBLE_EQ(LaplaceMechanism::noise_scale(delta, eps), delta / eps);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LaplaceScaling,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{10.0, 0.5},
                      std::pair{60.0, 2.0}, std::pair{0.5, 4.0}));

// ------------------------------------------------------------ Gaussian

TEST(Gaussian, SigmaFormula) {
  double sigma = GaussianMechanism::noise_sigma(1.0, 1.0, 1e-5);
  EXPECT_NEAR(sigma, std::sqrt(2 * std::log(1.25e5)), 1e-9);
}

TEST(Gaussian, Validation) {
  EXPECT_THROW(GaussianMechanism::noise_sigma(1, 2.0, 1e-5), ArgumentError);
  EXPECT_THROW(GaussianMechanism::noise_sigma(1, 1.0, 0), ArgumentError);
  EXPECT_THROW(GaussianMechanism::noise_sigma(-1, 1.0, 1e-5), ArgumentError);
}

TEST(Gaussian, ReleaseCentred) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(GaussianMechanism::release(50.0, 1.0, 1.0, 1e-5, rng));
  }
  EXPECT_NEAR(mean(xs), 50.0, 0.2);
}

// -------------------------------------------------------------- Budget

TEST(Budget, ChargeAndRemaining) {
  BudgetLedger ledger(10.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(5), 10.0);
  ASSERT_TRUE(ledger.try_reserve({0, 100}, 0, 3.0));
  EXPECT_DOUBLE_EQ(ledger.remaining(50), 7.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(100), 10.0);  // exclusive end
}

TEST(Budget, DeniesWhenExhausted) {
  BudgetLedger ledger(1.0);
  ASSERT_TRUE(ledger.try_reserve({0, 10}, 0, 1.0));
  EXPECT_FALSE(ledger.can_charge({5, 15}, 0, 0.5));
  EXPECT_TRUE(ledger.can_charge({10, 15}, 0, 1.0));
  EXPECT_FALSE(ledger.try_reserve({5, 15}, 0, 0.5));
  EXPECT_DOUBLE_EQ(ledger.remaining(12), 1.0);  // denial charged nothing
}

TEST(Budget, MarginCheckedButNotCharged) {
  // The Alg. 1 rho-margin: queries need budget in [a-rho, b+rho] but only
  // consume in [a, b].
  BudgetLedger ledger(1.0);
  ASSERT_TRUE(ledger.try_reserve({100, 200}, 10, 1.0));
  // The margin [90,100) and [200,210) was NOT charged:
  EXPECT_DOUBLE_EQ(ledger.remaining(95), 1.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(205), 1.0);
  // But a new query overlapping the margin of the old one is denied,
  // because ITS margin reaches into the charged region.
  EXPECT_FALSE(ledger.can_charge({200, 300}, 10, 1.0));
  // Far enough away (rho-disjoint), it is allowed: margin [200,210) holds
  // full budget.
  EXPECT_TRUE(ledger.can_charge({210, 300}, 10, 1.0));
}

TEST(Budget, MinRemainingOverInterval) {
  BudgetLedger ledger(5.0);
  ASSERT_TRUE(ledger.try_reserve({10, 20}, 0, 2.0));
  ASSERT_TRUE(ledger.try_reserve({15, 30}, 0, 1.0));
  EXPECT_DOUBLE_EQ(ledger.min_remaining({0, 40}), 2.0);  // [15,20) spent 3
  EXPECT_DOUBLE_EQ(ledger.min_remaining({0, 10}), 5.0);
}

TEST(Budget, TotalConsumed) {
  BudgetLedger ledger(5.0);
  ASSERT_TRUE(ledger.try_reserve({0, 10}, 0, 2.0));
  EXPECT_DOUBLE_EQ(ledger.total_consumed({0, 20}), 20.0);
}

TEST(Budget, Validation) {
  EXPECT_THROW(BudgetLedger(0.0), ArgumentError);
  BudgetLedger ledger(1.0);
  EXPECT_THROW(ledger.can_charge({5, 5}, 0, 0.5), ArgumentError);
  EXPECT_THROW(ledger.can_charge({0, 5}, -1, 0.5), ArgumentError);
  EXPECT_THROW(ledger.can_charge({0, 5}, 0, 0.0), ArgumentError);
}

TEST(Budget, ManySmallChargesUntilDepleted) {
  BudgetLedger ledger(1.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ledger.try_reserve({0, 100}, 0, 0.1)) << "charge " << i;
  }
  EXPECT_FALSE(ledger.can_charge({0, 100}, 0, 0.1));
  EXPECT_NEAR(ledger.remaining(50), 0.0, 1e-9);
}

TEST(Budget, DisjointWindowsIndependent) {
  BudgetLedger ledger(1.0);
  ASSERT_TRUE(ledger.try_reserve({0, 100}, 5, 1.0));
  // The second window's margin [100, 105) reaches only the first one's
  // uncharged margin, so it fits.
  ASSERT_TRUE(ledger.try_reserve({105, 200}, 5, 1.0));
  EXPECT_DOUBLE_EQ(ledger.remaining(102), 1.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(150), 0.0);
}

TEST(Budget, TryReserveIsAtomicCheckAndCharge) {
  BudgetLedger ledger(1.0);
  EXPECT_TRUE(ledger.try_reserve({0, 100}, 5, 1.0));
  // Nothing left anywhere in [0, 100); a second reservation must fail
  // without disturbing the ledger.
  EXPECT_FALSE(ledger.try_reserve({50, 60}, 0, 0.5));
  EXPECT_DOUBLE_EQ(ledger.remaining(50), 0.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(100), 1.0);
}

TEST(Budget, RefundExactlyReversesACharge) {
  BudgetLedger ledger(2.0);
  ASSERT_TRUE(ledger.try_reserve({10, 50}, 0, 1.5));
  std::ostringstream before;
  BudgetLedger pristine(2.0);
  pristine.save(before);
  ledger.refund({10, 50}, 1.5);
  std::ostringstream after;
  ledger.save(after);
  // Byte-identical to a ledger that never charged.
  EXPECT_EQ(after.str(), before.str());
  EXPECT_TRUE(ledger.can_charge({10, 50}, 0, 2.0));
}

TEST(Budget, RefundBeyondSpentThrows) {
  BudgetLedger ledger(2.0);
  ASSERT_TRUE(ledger.try_reserve({0, 10}, 0, 1.0));
  // Double refund (or refunding frames that were never charged) would mint
  // budget: the ledger refuses.
  ledger.refund({0, 10}, 1.0);
  EXPECT_THROW(ledger.refund({0, 10}, 1.0), ArgumentError);
  EXPECT_THROW(ledger.refund({100, 110}, 0.5), ArgumentError);
  BudgetLedger partial(2.0);
  ASSERT_TRUE(partial.try_reserve({0, 10}, 0, 1.0));
  EXPECT_THROW(partial.refund({0, 20}, 1.0), ArgumentError);  // [10,20) unspent
  EXPECT_DOUBLE_EQ(partial.remaining(5), 1.0);  // untouched by failed refund
}

TEST(Budget, ConcurrentReserveOfLastEpsilonAdmitsExactlyOne) {
  // Two analysts race for the last ε of a camera: exactly one try_reserve
  // may win, no matter the interleaving. Run several rounds; the TSan CI
  // leg checks the same code for data races.
  for (int round = 0; round < 20; ++round) {
    BudgetLedger ledger(1.0);
    std::atomic<int> wins{0};
    std::vector<std::thread> racers;
    racers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      racers.emplace_back([&] {
        if (ledger.try_reserve({0, 100}, 10, 1.0)) ++wins;
      });
    }
    for (auto& th : racers) th.join();
    EXPECT_EQ(wins.load(), 1) << "round " << round;
    EXPECT_DOUBLE_EQ(ledger.remaining(50), 0.0);
  }
}

TEST(Budget, SaveLoadRoundTrip) {
  BudgetLedger ledger(4.0);
  ASSERT_TRUE(ledger.try_reserve({100, 200}, 10, 1.5));
  ASSERT_TRUE(ledger.try_reserve({150, 400}, 10, 0.75));
  std::ostringstream os;
  ledger.save(os);
  std::istringstream is(os.str());
  BudgetLedger restored = BudgetLedger::load(is);
  EXPECT_DOUBLE_EQ(restored.epsilon_per_frame(), 4.0);
  for (FrameIndex f : {0, 99, 100, 149, 150, 199, 200, 399, 400, 1000}) {
    EXPECT_DOUBLE_EQ(restored.remaining(f), ledger.remaining(f)) << f;
  }
  // The restored ledger enforces the same admissibility.
  EXPECT_EQ(restored.can_charge({150, 160}, 0, 2.0),
            ledger.can_charge({150, 160}, 0, 2.0));
}

TEST(Budget, LoadRejectsMalformed) {
  auto load = [](const std::string& s) {
    std::istringstream is(s);
    return BudgetLedger::load(is);
  };
  EXPECT_THROW(load(""), ParseError);
  EXPECT_THROW(load("wrong-header\nend\n"), ParseError);
  EXPECT_THROW(load("privid-budget-v1\nend\n"), ParseError);  // no epsilon
  EXPECT_THROW(load("privid-budget-v1\nepsilon 1\n"), ParseError);  // no end
  EXPECT_THROW(load("privid-budget-v1\nepsilon 1\nspent 5 3 1\nend\n"),
               ParseError);  // inverted segment
  EXPECT_THROW(load("privid-budget-v1\nepsilon 1\nfrob 1 2 3\nend\n"),
               ParseError);  // unknown record
}

// Property: the ledger agrees with a dense per-frame reference under
// random admit/charge sequences.
class BudgetLedgerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetLedgerProperty, MatchesDenseReference) {
  Rng rng(GetParam());
  constexpr std::int64_t kFrames = 500;
  const double kBudget = 4.0;
  BudgetLedger ledger(kBudget);
  std::vector<double> spent(kFrames, 0.0);

  for (int op = 0; op < 300; ++op) {
    std::int64_t a = rng.uniform_int(20, kFrames - 40);
    std::int64_t b = rng.uniform_int(a + 1, kFrames - 20);
    FrameIndex margin = rng.uniform_int(0, 15);
    double eps = rng.uniform(0.05, 1.5);

    bool ref_ok = true;
    for (std::int64_t f = a - margin; f < b + margin; ++f) {
      if (kBudget - spent[static_cast<std::size_t>(f)] < eps - 1e-12) {
        ref_ok = false;
        break;
      }
    }
    ASSERT_EQ(ledger.can_charge({a, b}, margin, eps), ref_ok)
        << "op " << op << " [" << a << "," << b << ") margin " << margin
        << " eps " << eps;
    if (ref_ok) {
      ASSERT_TRUE(ledger.try_reserve({a, b}, margin, eps));
      for (std::int64_t f = a; f < b; ++f) {
        spent[static_cast<std::size_t>(f)] += eps;
      }
    }
  }
  for (std::int64_t f = 0; f < kFrames; ++f) {
    ASSERT_NEAR(ledger.remaining(f), kBudget - spent[static_cast<std::size_t>(f)],
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetLedgerProperty,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// --------------------------------------------------------- Degradation

TEST(Degradation, AtBoundMatchesEpsilonAlpha) {
  // Eq. C.3 first branch: e^eps * alpha when small.
  EXPECT_NEAR(max_detection_probability(1.0, 0.01), std::exp(1.0) * 0.01,
              1e-12);
}

TEST(Degradation, SaturatesTowardOne) {
  EXPECT_GT(max_detection_probability(10.0, 0.5), 0.9999);
  EXPECT_LE(max_detection_probability(50.0, 0.5), 1.0);
}

TEST(Degradation, ZeroEpsilonIsRandomGuessing) {
  // With eps = 0, detection probability cannot exceed alpha... the bound
  // min(alpha, 1 - (alpha - 0)) = alpha for alpha <= 0.5.
  EXPECT_NEAR(max_detection_probability(0.0, 0.2), 0.2, 1e-12);
}

TEST(Degradation, MonotoneInEpsilon) {
  double prev = 0;
  for (double eps = 0.1; eps < 4.0; eps += 0.1) {
    double p = max_detection_probability(eps, 0.01);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Degradation, EffectiveEpsilonForK) {
  // §5.3: (rho, 2K)-bounded events face 2eps; (rho, K/2) face eps/2.
  EXPECT_DOUBLE_EQ(effective_epsilon_for_k(1.0, 2, 4), 2.0);
  EXPECT_DOUBLE_EQ(effective_epsilon_for_k(1.0, 2, 1), 0.5);
  EXPECT_THROW(effective_epsilon_for_k(1.0, 0, 1), ArgumentError);
}

TEST(Degradation, EffectiveEpsilonForRho) {
  // rho = policy => ratio 1.
  EXPECT_DOUBLE_EQ(effective_epsilon_for_rho(1.0, 30, 30, 5), 1.0);
  // Doubling duration roughly doubles the chunk span ratio.
  double e2 = effective_epsilon_for_rho(1.0, 30, 60, 5);
  EXPECT_GT(e2, 1.5);
  EXPECT_LE(e2, 2.0);
  EXPECT_THROW(effective_epsilon_for_rho(1.0, 30, 30, 0), ArgumentError);
}

TEST(Degradation, Validation) {
  EXPECT_THROW(max_detection_probability(-1, 0.1), ArgumentError);
  EXPECT_THROW(max_detection_probability(1, 1.5), ArgumentError);
}

// Statistical verification of Eq. C.3 against the actual mechanism: an
// adversary running the optimal threshold test on Laplace-noised counts
// must not beat the analytical detection bound.
class DegradationEmpirical : public ::testing::TestWithParam<double> {};

TEST_P(DegradationEmpirical, AdversaryBoundedByEqC3) {
  const double eps = GetParam();
  const double sensitivity = 1.0;  // one event, neighbouring counts differ by 1
  const double raw_without = 100.0;
  const double raw_with = raw_without + sensitivity;
  const double alpha = 0.05;
  Rng rng(31337);

  // The adversary thresholds at the point where P(false positive) = alpha:
  // for Laplace(b) around raw_without, the (1-alpha) quantile.
  double b = sensitivity / eps;
  double threshold = raw_without + b * std::log(1.0 / (2.0 * alpha));

  constexpr int kTrials = 40000;
  int detected = 0;
  for (int i = 0; i < kTrials; ++i) {
    double observed = LaplaceMechanism::release(raw_with, sensitivity, eps, rng);
    if (observed > threshold) ++detected;
  }
  double empirical = static_cast<double>(detected) / kTrials;
  double bound = max_detection_probability(eps, alpha);
  EXPECT_LE(empirical, bound + 0.01)
      << "eps=" << eps << ": adversary beat the Eq. C.3 bound";
  // Sanity: the attack does better than blind guessing at large eps.
  if (eps >= 2.0) {
    EXPECT_GT(empirical, alpha);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DegradationEmpirical,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace privid
