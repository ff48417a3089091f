#include <gtest/gtest.h>

#include "src/util/flags.h"

namespace litegpu {
namespace {

Flags ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, KeyEqualsValue) {
  Flags f = ParseArgs({"--model=Llama3-70B", "--tbt=0.05"});
  EXPECT_EQ(f.GetString("model"), "Llama3-70B");
  EXPECT_EQ(f.GetDouble("tbt", 0.0), 0.05);
}

TEST(Flags, KeySpaceValue) {
  Flags f = ParseArgs({"--gpu", "H100", "--batch", "128"});
  EXPECT_EQ(f.GetString("gpu"), "H100");
  EXPECT_EQ(f.GetInt("batch", 0), 128);
}

TEST(Flags, BareSwitchIsTrue) {
  Flags f = ParseArgs({"--ideal-capacity", "--verbose"});
  EXPECT_EQ(f.GetBool("ideal-capacity"), true);
  EXPECT_EQ(f.GetBool("verbose"), true);
  EXPECT_EQ(f.GetBool("absent"), false);
}

TEST(Flags, SwitchFollowedByFlagStaysSwitch) {
  Flags f = ParseArgs({"--quiet", "--model=X"});
  EXPECT_EQ(f.GetBool("quiet"), true);
  EXPECT_EQ(f.GetString("model"), "X");
}

TEST(Flags, PositionalsAndSubcommand) {
  Flags f = ParseArgs({"search", "--gpu", "Lite", "extra"});
  EXPECT_EQ(f.Subcommand(), "search");
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[1], "extra");
}

TEST(Flags, MissingFallsBackAndMalformedIsNullopt) {
  Flags f = ParseArgs({"--count=abc", "--rate=1.5x", "--blank="});
  EXPECT_EQ(f.GetInt("count", 7), std::nullopt);
  EXPECT_EQ(f.GetDouble("rate", 2.5), std::nullopt);
  EXPECT_EQ(f.GetDouble("blank", 2.5), std::nullopt);
  EXPECT_EQ(f.GetInt("missing", -1), -1);
  EXPECT_EQ(f.GetDouble("missing", 2.5), 2.5);
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
}

TEST(Flags, BoolSpellings) {
  Flags f = ParseArgs({"--a=yes", "--b=0", "--c=off", "--d=1", "--e=maybe"});
  EXPECT_EQ(f.GetBool("a"), true);
  EXPECT_EQ(f.GetBool("b", true), false);
  EXPECT_EQ(f.GetBool("c", true), false);
  EXPECT_EQ(f.GetBool("d"), true);
  EXPECT_EQ(f.GetBool("e", true), std::nullopt);  // unparsable -> no value
  EXPECT_EQ(f.GetBool("absent", true), true);
}

TEST(Flags, HasDistinguishesPresence) {
  Flags f = ParseArgs({"--present=x"});
  EXPECT_TRUE(f.Has("present"));
  EXPECT_FALSE(f.Has("absent"));
}

TEST(Flags, EmptyArgv) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.Subcommand(), "");
  EXPECT_TRUE(f.positionals().empty());
}

TEST(Flags, DeclaredSwitchesDoNotConsumePositionals) {
  std::vector<const char*> args = {"prog", "run", "--json", "scenario.json"};
  Flags f = Flags::Parse(static_cast<int>(args.size()), args.data(), {"json"});
  EXPECT_EQ(f.GetBool("json"), true);
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[1], "scenario.json");
  // Without the declaration the old greedy behavior still applies.
  Flags greedy = Flags::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(greedy.GetString("json"), "scenario.json");
}

TEST(Flags, GetIntRejectsValuesOutsideIntRange) {
  Flags f = ParseArgs({"--big=99999999999", "--low=-99999999999", "--max=2147483647",
                       "--empty="});
  EXPECT_EQ(f.GetInt("big", 3), std::nullopt);  // would wrap to 1215752191
  EXPECT_EQ(f.GetInt("low", 3), std::nullopt);
  EXPECT_EQ(f.GetInt("max", 3), 2147483647);
  EXPECT_EQ(f.GetInt("empty", 3), std::nullopt);
}

TEST(Flags, UnknownFlagCheckAcceptsAllowedSet) {
  Flags f = ParseArgs({"--model=X", "--threads", "4", "--json"});
  EXPECT_EQ(f.UnknownFlagCheck({"model", "threads", "json", "unused"}), "");
  EXPECT_EQ(ParseArgs({}).UnknownFlagCheck({}), "");
}

TEST(Flags, UnknownFlagCheckNamesTheTypoWithSuggestion) {
  Flags f = ParseArgs({"--thread", "4"});
  std::string message = f.UnknownFlagCheck({"threads", "model"});
  EXPECT_NE(message.find("--thread"), std::string::npos);
  EXPECT_NE(message.find("did you mean --threads"), std::string::npos);

  Flags f2 = ParseArgs({"--mdoel=Llama3-70B"});
  std::string message2 = f2.UnknownFlagCheck({"model", "gpu"});
  EXPECT_NE(message2.find("did you mean --model"), std::string::npos);
}

TEST(Flags, UnknownFlagCheckSkipsSuggestionWhenNothingIsClose) {
  Flags f = ParseArgs({"--frobnicate"});
  std::string message = f.UnknownFlagCheck({"model", "gpu"});
  EXPECT_NE(message.find("--frobnicate"), std::string::npos);
  EXPECT_EQ(message.find("did you mean"), std::string::npos);
}

}  // namespace
}  // namespace litegpu
