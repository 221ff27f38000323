#include "src/core/cli.hpp"

#include <gtest/gtest.h>

namespace burst {
namespace {

std::optional<CliRequest> parse(std::vector<std::string> args,
                                std::string* err = nullptr) {
  CliError error;
  auto r = parse_cli(args, &error);
  if (err) *err = error.message;
  return r;
}

TEST(Cli, DefaultsArePaperScenario) {
  const auto r = parse({});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->scenario.transport, Transport::kReno);
  EXPECT_EQ(r->scenario.num_clients, 20);
  EXPECT_FALSE(r->show_help);
}

TEST(Cli, ParsesTransports) {
  for (const auto& [name, t] :
       std::vector<std::pair<std::string, Transport>>{
           {"udp", Transport::kUdp},
           {"tahoe", Transport::kTahoe},
           {"reno", Transport::kReno},
           {"newreno", Transport::kNewReno},
           {"vegas", Transport::kVegas},
           {"sack", Transport::kSack}}) {
    const auto r = parse({"--transport=" + name});
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_EQ(r->scenario.transport, t);
  }
}

TEST(Cli, ParsesQueues) {
  EXPECT_EQ(parse({"--queue=red"})->scenario.gateway, GatewayQueue::kRed);
  EXPECT_EQ(parse({"--queue=drr"})->scenario.gateway, GatewayQueue::kDrr);
  EXPECT_EQ(parse({"--queue=fifo"})->scenario.gateway,
            GatewayQueue::kDropTail);
  EXPECT_EQ(parse({"--queue=droptail"})->scenario.gateway,
            GatewayQueue::kDropTail);
}

TEST(Cli, ParsesNumericOptions) {
  const auto r = parse({"--clients=55", "--duration=7.5", "--seed=9",
                        "--buffer=80", "--bottleneck-mbps=16",
                        "--mean-interarrival=0.02"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->scenario.num_clients, 55);
  EXPECT_DOUBLE_EQ(r->scenario.duration, 7.5);
  EXPECT_EQ(r->scenario.seed, 9u);
  EXPECT_EQ(r->scenario.gateway_buffer, 80u);
  EXPECT_DOUBLE_EQ(r->scenario.bottleneck_bw_bps, 16e6);
  EXPECT_DOUBLE_EQ(r->scenario.mean_interarrival, 0.02);
}

TEST(Cli, ParsesFlags) {
  const auto r = parse({"--delack", "--ecn", "--adaptive-red",
                        "--limited-transmit", "--cwnd-validation"});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->scenario.delayed_ack);
  EXPECT_TRUE(r->scenario.ecn);
  EXPECT_TRUE(r->scenario.adaptive_red);
  EXPECT_TRUE(r->scenario.limited_transmit);
  EXPECT_TRUE(r->scenario.cwnd_validation);
}

TEST(Cli, ParsesTraceList) {
  const auto r = parse({"--clients=10", "--trace=0,3,9"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->options.trace_clients, (std::vector<int>{0, 3, 9}));
  EXPECT_GT(r->options.cwnd_sample_period, 0.0);
}

TEST(Cli, TraceOutOfRangeRejected) {
  std::string err;
  EXPECT_FALSE(parse({"--clients=10", "--trace=10"}, &err).has_value());
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(Cli, RedThresholdOrderingValidated) {
  std::string err;
  EXPECT_FALSE(parse({"--red-min=40", "--red-max=10"}, &err).has_value());
  EXPECT_NE(err.find("red-min"), std::string::npos);
  EXPECT_TRUE(parse({"--red-min=5", "--red-max=20"}).has_value());
}

TEST(Cli, RejectsUnknownAndMalformed) {
  std::string err;
  EXPECT_FALSE(parse({"--nope"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
  EXPECT_FALSE(parse({"positional"}, &err).has_value());
  EXPECT_FALSE(parse({"--clients=zero"}, &err).has_value());
  EXPECT_FALSE(parse({"--clients=-3"}, &err).has_value());
  EXPECT_FALSE(parse({"--duration=-1"}, &err).has_value());
  EXPECT_FALSE(parse({"--transport"}, &err).has_value());
}

// strtod accepts "nan" and "inf"; a NaN or infinite duration would never
// end the run, so every positive-number option must reject them.
TEST(Cli, RejectsNonFiniteNumbers) {
  for (const std::string key :
       {"duration", "bottleneck-mbps", "mean-interarrival"}) {
    for (const std::string value : {"nan", "inf", "-inf"}) {
      std::string err;
      EXPECT_FALSE(parse({"--" + key + "=" + value}, &err).has_value())
          << key << "=" << value;
      EXPECT_EQ(err, "--" + key + " needs a positive number")
          << key << "=" << value;
    }
  }
  // An infinite flight-recorder cadence would silently take no samples.
  for (const std::string value : {"nan", "inf"}) {
    std::string err;
    EXPECT_FALSE(parse({"--fr-period=" + value}, &err).has_value()) << value;
    EXPECT_EQ(err, "--fr-period needs a positive number of seconds");
  }
}

TEST(Cli, HelpFlag) {
  const auto r = parse({"--help"});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->show_help);
  EXPECT_NE(cli_usage().find("--transport"), std::string::npos);
}

TEST(Cli, CsvPath) {
  const auto r = parse({"--csv=/tmp/out"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->csv_path, "/tmp/out");
}

}  // namespace
}  // namespace burst
