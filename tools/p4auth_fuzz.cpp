// p4auth_fuzz — adversarial scenario-matrix fuzzer front-end.
//
// Usage:
//   p4auth_fuzz [--scenarios N] [--seeds A..B] [--jobs J] [--out DIR]
//   p4auth_fuzz --repro FILE
//
// Matrix mode derives N scenarios per campaign seed (see
// docs/FUZZING.md for the spec schema and the oracle rulebook), runs
// them over --jobs workers, and judges each run against the invariant
// oracle. Reduction is matrix-ordered, so stdout, FUZZ_report.json and
// every corpus entry are byte-identical for any --jobs value. With
// --out DIR the report lands at DIR/FUZZ_report.json and each
// oracle-violating scenario at DIR/corpus/<seed>-<index>.json. Exit 0
// when every scenario passes, 1 when any rule fired, 2 on usage errors
// (tools/cli_flags.hpp: unknown flags, numbers that do not parse).
//
// Replay mode (--repro) accepts a corpus entry or a bare spec JSON,
// re-runs that single scenario, and prints the fresh verdict to stdout.
// For a corpus entry the output reproduces the stored entry byte for
// byte — diff against the file to confirm the failure. Exit 0 when the
// scenario ran (whatever its verdict), 2 on parse errors.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_flags.hpp"
#include "runner/runner.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/json_in.hpp"
#include "scenario/oracle.hpp"
#include "scenario/spec.hpp"

using namespace p4auth;
using namespace p4auth::scenario;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: p4auth_fuzz [--scenarios N] [--seeds A..B] [--jobs J] [--out DIR]\n"
               "       p4auth_fuzz --repro FILE\n");
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  return true;
}

int repro(const char* file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", file);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  auto doc = parse_json(text.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", file, doc.error().message.c_str());
    return 2;
  }
  auto spec = spec_from_json(doc.value());
  if (!spec.ok()) {
    std::fprintf(stderr, "%s: %s\n", file, spec.error().message.c_str());
    return 2;
  }

  const ScenarioEvidence evidence = run_scenario(spec.value());
  const Verdict verdict = judge(evidence);

  // Corpus entries carry the campaign seed; echo it back so the output
  // byte-compares against the stored entry.
  const JsonValue* seed = doc.value().find("campaign_seed");
  if (seed != nullptr && seed->kind == JsonValue::Kind::Number) {
    std::printf("%s\n", corpus_entry_json(seed->number, evidence, verdict).c_str());
  } else {
    std::printf("%s\n", verdict_json(evidence, verdict).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Flags flags(argc, argv, 1, usage);
  if (!flags.check({"--scenarios", "--seeds", "--jobs", "--out", "--repro"})) {
    return 2;
  }

  if (const char* file = flags.value("--repro")) {
    return repro(file);
  }

  FuzzOptions options;
  options.scenarios = static_cast<std::uint32_t>(flags.u64("--scenarios", 50));
  options.jobs = static_cast<int>(flags.u64("--jobs", 1));
  if (options.scenarios == 0) {
    std::fprintf(stderr, "--scenarios must be at least 1\n");
    return 2;
  }
  {
    auto seeds = runner::parse_seed_range(flags.value("--seeds", "1"));
    if (!seeds.ok()) {
      std::fprintf(stderr, "bad --seeds: %s\n", seeds.error().message.c_str());
      return 2;
    }
    options.seeds = seeds.value();
  }

  const FuzzResult result = run_fuzz(options);
  std::printf("fuzz: %zu scenarios (seeds %s x %u), %zu violating\n", result.total,
              options.seeds.to_string().c_str(), options.scenarios, result.failed);
  for (const FuzzFailure& failure : result.failures) {
    std::printf("  corpus: %s\n", failure.corpus_name.c_str());
  }

  if (const char* out = flags.value("--out")) {
    std::error_code ec;
    const std::filesystem::path dir(out);
    std::filesystem::create_directories(dir / "corpus", ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", out, ec.message().c_str());
      return 2;
    }
    if (!write_file(dir / "FUZZ_report.json", result.report_json)) return 2;
    for (const FuzzFailure& failure : result.failures) {
      if (!write_file(dir / "corpus" / failure.corpus_name, failure.corpus_json)) return 2;
    }
  }
  return result.failed == 0 ? 0 : 1;
}
