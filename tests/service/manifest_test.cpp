// Manifest grammar: defaults, every key, comments, and the hard-error
// contract (a typo must not silently shrink a verification matrix).
#include "service/manifest.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace gpo::service {
namespace {

TEST(Manifest, ModelOnlyLineGetsDefaults) {
  JobSpec job = parse_job_line("nsdp:8");
  EXPECT_EQ(job.model, "nsdp:8");
  EXPECT_TRUE(job.engines.empty());  // scheduler substitutes the default set
  EXPECT_DOUBLE_EQ(job.max_seconds, kDefaultJobSeconds);
  EXPECT_EQ(job.max_states, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(job.expect.empty());
}

TEST(Manifest, AllKeysParse) {
  JobSpec job = parse_job_line(
      "examples/nets/fig7.net engines=gpo,por max-seconds=2.5 "
      "max-states=1000 reduce=safe expect=deadlock",
      7);
  EXPECT_EQ(job.model, "examples/nets/fig7.net");
  ASSERT_EQ(job.engines.size(), 2u);
  EXPECT_EQ(job.engines[0], "gpo");
  EXPECT_EQ(job.engines[1], "por");
  EXPECT_DOUBLE_EQ(job.max_seconds, 2.5);
  EXPECT_EQ(job.max_states, 1000u);
  EXPECT_EQ(job.reduce, "safe");
  EXPECT_EQ(job.expect, "deadlock");
  EXPECT_EQ(job.line, 7u);
}

TEST(Manifest, RetiredFamilyStoreAndThreadsKeysAreUnknown) {
  // gpo is the ZDD store (no family-store axis is left to pick) and racers
  // run sequentially (no per-job thread count): both keys are plain unknown
  // keys now.
  for (const char* line : {"nsdp:8 family-store=zdd", "nsdp:8 threads=4"}) {
    try {
      (void)parse_job_line(line);
      ADD_FAILURE() << line << " parsed";
    } catch (const ManifestError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, NumbersAreParsedStrictly) {
  // Trailing junk, signs on counts and out-of-range model sizes are errors
  // with a message, never a silent wrap or truncation.
  for (const char* line :
       {"fig7 max-states=12ab", "fig7 max-states=-3", "fig7 max-states= 5",
        "fig7 max-states=99999999999999999999", "fig7 max-seconds=1s",
        "fig7 max-seconds=nan", "fig7 max-seconds=-2", "nsdp:-3",
        "nsdp:99999999999", "nsdp:abc", "nsdp:1", "nsdp", "rw:1001",
        "asat:4x"}) {
    EXPECT_THROW((void)parse_job_line(line), ManifestError) << line;
  }
  EXPECT_EQ(parse_job_line("nsdp:10000").model, "nsdp:10000");
  EXPECT_EQ(parse_job_line("fig7 max-states=+7").max_states, 7u);
  EXPECT_DOUBLE_EQ(parse_job_line("fig7 max-seconds=inf").max_seconds,
                   std::numeric_limits<double>::infinity());
  // Names that are not sized generators, and net files, pass through to
  // the loader.
  EXPECT_EQ(parse_job_line("nosuch:3").model, "nosuch:3");
  EXPECT_EQ(parse_job_line("rw:2.net").model, "rw:2.net");
}

TEST(Manifest, CommentsAndBlankLinesAreSkipped) {
  std::istringstream in(
      "# full-line comment\n"
      "\n"
      "fig7 expect=deadlock   # trailing comment\n"
      "   \n"
      "rw:4 engines=por\n");
  Manifest m = parse_manifest(in);
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].model, "fig7");
  EXPECT_EQ(m.jobs[0].expect, "deadlock");
  EXPECT_EQ(m.jobs[0].line, 3u);
  EXPECT_EQ(m.jobs[1].model, "rw:4");
  EXPECT_EQ(m.jobs[1].line, 5u);
}

TEST(Manifest, DefaultPortfolioIsKnownAndDiverse) {
  const auto& portfolio = default_portfolio();
  ASSERT_GE(portfolio.size(), 3u);
  for (const std::string& name : portfolio)
    EXPECT_TRUE(is_known_engine(name)) << name;
  EXPECT_FALSE(is_known_engine("smt"));
}

TEST(Manifest, MalformedLinesAreHardErrors) {
  EXPECT_THROW((void)parse_job_line("fig7 engines="), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 engines=por,smt"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-seconds=0"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-seconds=abc"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-states=0"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 expect=maybe"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 budget=3"), ManifestError);
  EXPECT_THROW((void)parse_job_line("   "), ManifestError);
}

TEST(Manifest, ErrorsCarryTheLineNumber) {
  std::istringstream in("fig7\nrw:4 engines=nosuch\n");
  try {
    (void)parse_manifest(in);
    FAIL() << "expected ManifestError";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// Lines are read through a 64 KiB cap: a line of exactly kMaxLineBytes is
// still a job, one byte more (or a 1 MiB line) is refused by number.
TEST(Manifest, OverLongLineIsAnError) {
  const std::string at_cap = std::string(kMaxLineBytes - 4, 'x') + ".net";
  std::istringstream ok("fig7\n" + at_cap + "\n");
  Manifest m = parse_manifest(ok);
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[1].model, at_cap);

  for (std::size_t bytes : {kMaxLineBytes + 1, std::size_t{1} << 20}) {
    std::istringstream in("fig7\n" + std::string(bytes, 'x') + "\nrw:4\n");
    try {
      (void)parse_manifest(in);
      ADD_FAILURE() << "expected ManifestError for " << bytes << " bytes";
    } catch (const ManifestError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: line too long"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, MissingFileThrows) {
  EXPECT_THROW((void)parse_manifest_file("/nonexistent/jobs.manifest"),
               ManifestError);
}

}  // namespace
}  // namespace gpo::service
