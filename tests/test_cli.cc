/**
 * @file
 * Unit tests for the command-line layer shared by the tools: strict
 * number parsing, flag kinds, optional operands, ENZIAN_THREADS, and
 * output handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/cli.hh"

namespace enzian::cli {
namespace {

/** Parse @p args (argv[0] is supplied) against @p tool. */
Tool::Status
run(Tool &tool, std::vector<const char *> args, std::string &error)
{
    args.insert(args.begin(), "tool");
    return tool.tryParse(static_cast<int>(args.size()), args.data(),
                         error);
}

TEST(CliNumbers, UnsignedWidthBounds)
{
    EXPECT_EQ(parseUnsigned("4294967295", UINT32_MAX), 4294967295u);
    EXPECT_FALSE(parseUnsigned("4294967296", UINT32_MAX));
    EXPECT_FALSE(parseUnsigned("4294967297", UINT32_MAX));
    EXPECT_EQ(parseUnsigned("18446744073709551615", UINT64_MAX),
              UINT64_MAX);
    EXPECT_FALSE(parseUnsigned("18446744073709551616", UINT64_MAX));
}

TEST(CliNumbers, UnsignedRejectsSignGarbageAndBlanks)
{
    for (const char *bad : {"-1", "+1", "5x", "abc", "", " 5", "5 ",
                            "0x", "1.5", "0x1g"})
        EXPECT_FALSE(parseUnsigned(bad, UINT64_MAX)) << bad;
}

TEST(CliNumbers, UnsignedDecimalAndHex)
{
    EXPECT_EQ(parseUnsigned("0", 10), 0u);
    EXPECT_EQ(parseUnsigned("010", 100), 10u);
    EXPECT_EQ(parseUnsigned("0x10", 100), 16u);
    EXPECT_EQ(parseUnsigned("0XfF", 1000), 255u);
}

TEST(CliNumbers, DoubleMustSpanTextAndBeFinite)
{
    EXPECT_EQ(parseDouble("2.5"), 2.5);
    EXPECT_EQ(parseDouble("-3"), -3.0);
    EXPECT_EQ(parseDouble("1e3"), 1000.0);
    for (const char *bad : {"5x", "", " 5", "5 ", "nan", "inf", "x"})
        EXPECT_FALSE(parseDouble(bad)) << bad;
}

TEST(CliTool, ValuesOfEachKind)
{
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    double d = 0.0;
    std::string s;
    bool sw = false;
    Tool tool("t", "test");
    tool.value("--u32", u32, "N", "")
        .value("--u64", u64, "N", "")
        .value("--d", d, "X", "")
        .value("--s", s, "S", "")
        .flag("--sw", sw, "");
    std::string error;
    ASSERT_EQ(run(tool,
                  {"--u32", "7", "--u64", "0x100000000", "--d", "0.25",
                   "--s", "-dash", "--sw"},
                  error),
              Tool::Status::Ok)
        << error;
    EXPECT_EQ(u32, 7u);
    EXPECT_EQ(u64, 1ull << 32);
    EXPECT_EQ(d, 0.25);
    EXPECT_EQ(s, "-dash"); // a required value is taken as is
    EXPECT_TRUE(sw);
}

TEST(CliTool, MalformedValueNamesTheFlag)
{
    std::uint32_t ops = 4;
    Tool tool("t", "test");
    tool.value("--ops", ops, "N", "");
    std::string error;
    EXPECT_EQ(run(tool, {"--ops", "4294967297"}, error),
              Tool::Status::Error);
    EXPECT_NE(error.find("--ops"), std::string::npos) << error;
    EXPECT_NE(error.find("4294967295"), std::string::npos) << error;
    EXPECT_EQ(ops, 4u);
    EXPECT_EQ(run(tool, {"--ops", "-1"}, error), Tool::Status::Error);
    EXPECT_EQ(run(tool, {"--ops", "3x"}, error), Tool::Status::Error);
    EXPECT_EQ(ops, 4u);
}

TEST(CliTool, MissingValueAndUnknownFlag)
{
    std::uint32_t n = 0;
    Tool tool("t", "test");
    tool.value("--n", n, "N", "");
    std::string error;
    EXPECT_EQ(run(tool, {"--n"}, error), Tool::Status::Error);
    EXPECT_EQ(error, "--n requires a value");
    EXPECT_EQ(run(tool, {"--bogus"}, error), Tool::Status::Error);
    EXPECT_EQ(error, "unknown option '--bogus'");
    EXPECT_EQ(run(tool, {"stray"}, error), Tool::Status::Error);
    EXPECT_EQ(error, "unexpected operand 'stray'");
}

TEST(CliTool, OptionalOperandTakesDashAndNonFlags)
{
    std::optional<std::string> json, csv;
    bool sw = false;
    Tool tool("t", "test");
    tool.optionalValue("--json", json, "FILE", "")
        .optionalValue("--csv", csv, "FILE", "")
        .flag("--sw", sw, "");
    std::string error;

    ASSERT_EQ(run(tool, {"--json", "-", "--csv", "out.csv"}, error),
              Tool::Status::Ok);
    EXPECT_EQ(json, "-");
    EXPECT_EQ(csv, "out.csv");

    json.reset();
    csv.reset();
    ASSERT_EQ(run(tool, {"--json", "--sw"}, error), Tool::Status::Ok);
    EXPECT_EQ(json, ""); // present, no operand: stdout
    EXPECT_FALSE(csv);
    EXPECT_TRUE(sw);

    json.reset();
    ASSERT_EQ(run(tool, {"--json"}, error), Tool::Status::Ok);
    EXPECT_EQ(json, "");
}

TEST(CliTool, OptionalDestinationSetOnlyWhenGiven)
{
    std::optional<std::uint64_t> seed;
    Tool tool("t", "test");
    tool.value("--seed", seed, "N", "");
    std::string error;
    ASSERT_EQ(run(tool, {}, error), Tool::Status::Ok);
    EXPECT_FALSE(seed);
    ASSERT_EQ(run(tool, {"--seed", "9"}, error), Tool::Status::Ok);
    EXPECT_EQ(seed, 9u);
    seed.reset();
    EXPECT_EQ(run(tool, {"--seed", "nine"}, error), Tool::Status::Error);
    EXPECT_FALSE(seed);
}

TEST(CliTool, ChoiceValidatesAtParseTime)
{
    std::string mode = "both";
    Tool tool("t", "test");
    tool.choice("--mode", mode, {"cached", "uncached", "both"}, "");
    std::string error;
    ASSERT_EQ(run(tool, {"--mode", "cached"}, error), Tool::Status::Ok);
    EXPECT_EQ(mode, "cached");
    EXPECT_EQ(run(tool, {"--mode", "bogus"}, error),
              Tool::Status::Error);
    EXPECT_EQ(error, "bad --mode 'bogus' (want one of "
                     "cached|uncached|both)");
    EXPECT_EQ(mode, "cached");
}

TEST(CliTool, PositionalOperand)
{
    std::string path;
    bool check = false;
    Tool tool("t", "test");
    tool.flag("--check", check, "").operand("TRACE", path);
    std::string error;
    ASSERT_EQ(run(tool, {"--check", "a.ecit"}, error), Tool::Status::Ok);
    EXPECT_EQ(path, "a.ecit");
    EXPECT_EQ(run(tool, {"--check"}, error), Tool::Status::Error);
    EXPECT_EQ(error, "missing TRACE operand");
    EXPECT_EQ(run(tool, {"a", "b"}, error), Tool::Status::Error);
}

TEST(CliTool, HelpListsEveryFlag)
{
    std::uint32_t n = 0;
    std::optional<std::string> json;
    Tool tool("t", "About t.");
    tool.value("--n", n, "N", "the n").optionalValue("--json", json,
                                                    "FILE", "the json");
    std::string error;
    EXPECT_EQ(run(tool, {"--n", "1", "--help"}, error),
              Tool::Status::Help);
    const std::string h = tool.help();
    EXPECT_EQ(h.rfind("usage: t [OPTION]...\nAbout t.\n", 0), 0u) << h;
    for (const char *want : {"--n N", "the n", "--json [FILE]",
                             "the json", "--help", "Exit status"})
        EXPECT_NE(h.find(want), std::string::npos) << want;
}

TEST(CliToolDeathTest, ParseExitCodes)
{
    const char *help[] = {"t", "--help"};
    const char *bad[] = {"t", "--bogus"};
    Tool tool("t", "test");
    EXPECT_EXIT(tool.parse(2, help), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(tool.parse(2, bad), testing::ExitedWithCode(exitUsage),
                "t: unknown option '--bogus'");
    EXPECT_EXIT(tool.usageError("bad %s", "thing"),
                testing::ExitedWithCode(exitUsage), "t: bad thing");
}

TEST(CliEnvDeathTest, EnzianThreads)
{
    ::unsetenv("ENZIAN_THREADS");
    EXPECT_EQ(envThreads(), 0u);
    ::setenv("ENZIAN_THREADS", "", 1);
    EXPECT_EQ(envThreads(), 0u);
    ::setenv("ENZIAN_THREADS", "4", 1);
    EXPECT_EQ(envThreads(), 4u);
    for (const char *bad : {"abc", "-1", "4x", "4294967296"}) {
        ::setenv("ENZIAN_THREADS", bad, 1);
        EXPECT_EXIT(envThreads(), testing::ExitedWithCode(exitUsage),
                    "ENZIAN_THREADS");
    }
    ::unsetenv("ENZIAN_THREADS");
}

TEST(CliOutput, WriteToFileStdoutAndFailure)
{
    Tool tool("t", "test");
    auto hello = [](std::ostream &os) { os << "hello\n"; };

    testing::internal::CaptureStdout();
    EXPECT_TRUE(tool.writeTo("-", hello));
    EXPECT_TRUE(tool.writeTo("", hello));
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "hello\nhello\n");

    const std::string path = "cli_write_to.txt";
    ASSERT_TRUE(tool.writeTo(path, hello));
    std::ifstream in(path);
    std::stringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), "hello\n");

    EXPECT_FALSE(tool.writeTo("/nonexistent-dir/x.json", hello));
}

} // namespace
} // namespace enzian::cli
