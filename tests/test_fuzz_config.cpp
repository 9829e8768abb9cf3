// The deterministic mutator of the config fuzz target (fuzz_config.cpp).
// The corpus is the five shipped configs in examples/configs. A fixed-seed
// generator makes bit flips, syntax-byte overwrites, deleted ranges,
// duplicated lines, lines spliced in from another config, inserted section
// headers, keys and values from a dictionary of the readers' names and of
// boundary numbers, values replaced in place, and truncations. Every mutant
// must be accepted or rejected with a ConfigError or PreconditionError; the
// budget is constant and runs in seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzz_config.h"
#include "io/safe_file.h"

#ifndef MPCF_CONFIG_DIR
#define MPCF_CONFIG_DIR "examples/configs"
#endif

namespace mpcf {
namespace {

/// Mutants per run: a constant budget, the same inputs on every run.
constexpr int kMutants = 50000;
constexpr std::uint64_t kSeed = 0x6d7063666366677aull;

constexpr std::array<const char*, 5> kConfigs = {"cloud_collapse.cfg", "rayleigh_collapse.cfg",
                                                 "shock_bubble.cfg", "sod_shock_tube.cfg",
                                                 "wall_erosion.cfg"};

std::vector<std::string> make_corpus() {
  std::vector<std::string> corpus;
  for (const char* name : kConfigs) {
    const auto bytes = io::read_file(std::string(MPCF_CONFIG_DIR) + "/" + name);
    corpus.emplace_back(bytes.begin(), bytes.end());
  }
  return corpus;
}

std::string outcome_of(const std::string& text) {
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  return fuzz::read_config(bytes.data(), bytes.size());
}

/// Bytes that carry the format's syntax.
constexpr std::string_view kSyntax("[]=#;\"\n\r\t ,-+.e0123456789x\0\xff", 28);

/// Section headers, keys and values the readers know, and boundary numbers.
constexpr std::array<const char*, 22> kSections = {
    "[run]\n",      "[simulation]\n", "[cloud]\n",    "[materials]\n", "[fault]\n",
    "[job]\n",      "[scenario]\n",   "[]\n",         "[ run ]\n",     "[bad name]\n",
    "[run\n",       "[simulation]]\n", "[x]\n",       "[cloud]#c\n",   "[run];c\n",
    "\n[run]\n",    "[fault] \n",     "[a.b]\n",      "[-]\n",         "[_]\n",
    "[RUN]\n",      "[simulation]\r\n"};
/// A key the readers know, in its own section, or a name none knows.
struct Key {
  const char* section;
  const char* name;
};
constexpr std::array<Key, 34> kKeys = {{
    {"simulation", "blocks"},        {"simulation", "block_size"},
    {"simulation", "extent"},        {"simulation", "cfl"},
    {"simulation", "weno_order"},    {"simulation", "rho_floor"},
    {"simulation", "p_floor"},       {"simulation", "fused_step"},
    {"simulation", "bc"},            {"simulation", "bc_x_lo"},
    {"simulation", "bc_z_hi"},       {"materials", "gamma_vapor"},
    {"materials", "pc_liquid"},      {"materials", "rho_vapor"},
    {"materials", "p_liquid"},       {"materials", "smoothing_cells"},
    {"cloud", "count"},              {"cloud", "r_min"},
    {"cloud", "r_max"},              {"cloud", "lognormal_sigma"},
    {"cloud", "box_lo"},             {"cloud", "separation"},
    {"cloud", "seed"},               {"cloud", "max_attempts"},
    {"run", "steps"},                {"run", "max_time"},
    {"run", "diag_every"},           {"run", "dump_eps_p"},
    {"run", "checkpoint_keep"},      {"fault", "exit_at_step"},
    {"fault", "exit_on_attempt"},    {"scenario", "name"},
    {"run", "unknown_key"},          {"simulation", "bad key"},
}};
constexpr std::array<const char*, 34> kValues = {
    "0",      "-1",         "1",          "3",           "5",
    "1e308",  "1e309",      "-1e309",     "1e-320",      "nan",
    "inf",    "-inf",       "-0",         "0x10",        "2147483647",
    "2147483648",           "-2147483649",               "9223372036854775807",
    "9223372036854775808",  "1,2",        "8 8 8",       "8,8,8",
    "8 8",    "8 8 8 8",    "8 8 x",      "\"quoted # value\"",
    "\"unterminated",       "\"a\" b",   "true",        "off",
    "maybe",  "wall",       "periodic",   ""};

class Mutator {
 public:
  explicit Mutator(const std::vector<std::string>& corpus) : corpus_(corpus), rng_(kSeed) {}

  /// The next mutant and a name of what was done to it.
  std::string next(std::string& what) {
    std::string m = corpus_[pick(corpus_.size())];
    for (std::size_t rounds = 1 + pick(3); rounds > 0; --rounds) mutate(m, what);
    return m;
  }

 private:
  void mutate(std::string& m, std::string& what) {
    if (!what.empty()) what += " + ";
    switch (pick(8)) {
      case 0:
        what += "bit flip";
        if (!m.empty()) m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:
        what += "syntax byte";
        if (!m.empty()) m[pick(m.size())] = kSyntax[pick(kSyntax.size())];
        break;
      case 2: {
        what += "deleted range";
        const std::size_t at = pick(m.size() + 1);
        m.erase(at, 1 + pick(16));
        break;
      }
      case 3: {
        what += "duplicated line";
        const auto [from, to] = line_at(m, pick(m.size() + 1));
        m.insert(to, m.substr(from, to - from));
        break;
      }
      case 4: {
        what += "spliced line";
        const std::string& other = corpus_[pick(corpus_.size())];
        const auto [from, to] = line_at(other, pick(other.size() + 1));
        m.insert(line_at(m, pick(m.size() + 1)).first, other.substr(from, to - from));
        break;
      }
      case 5: {
        // A section header, a key line, or a key line under its own header.
        what += "inserted line";
        const Key& key = kKeys[pick(kKeys.size())];
        const std::string entry =
            std::string(key.name) + " = " + kValues[pick(kValues.size())] + "\n";
        const std::string lines[3] = {kSections[pick(kSections.size())], entry,
                                      std::string("[") + key.section + "]\n" + entry};
        m.insert(line_at(m, pick(m.size() + 1)).first, lines[pick(3)]);
        break;
      }
      case 6: {
        what += "replaced value";
        const auto [from, to] = line_at(m, pick(m.size() + 1));
        const std::size_t eq = m.find('=', from);
        if (eq < to)
          m.replace(eq + 1, to - eq - 1, std::string(" ") + kValues[pick(kValues.size())] + "\n");
        break;
      }
      default:
        what += "truncation";
        m.resize(pick(m.size() + 1));
        break;
    }
  }

  /// [first byte, one past the newline) of the line holding byte `at`.
  static std::pair<std::size_t, std::size_t> line_at(const std::string& s, std::size_t at) {
    if (at >= s.size()) return {s.size(), s.size()};
    const std::size_t nl = at == 0 ? std::string::npos : s.rfind('\n', at - 1);
    const std::size_t end = s.find('\n', at);
    return {nl == std::string::npos ? 0 : nl + 1, end == std::string::npos ? s.size() : end + 1};
  }

  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  const std::vector<std::string>& corpus_;
  std::mt19937_64 rng_;
};

/// The error kind of a rejection: the first line of its message with the
/// quoted text (first quote to last, or to the end when a NUL byte in the
/// quoted text cut the message) blanked, what follows "unknown key" or
/// "duplicate key" (mutated names) cut and numbers blanked, so messages
/// differing only in those count once.
std::string kind_of(const std::string& msg) {
  std::string line = msg.substr(0, msg.find('\n'));
  const std::size_t open = line.find('\'');
  const std::size_t close = line.rfind('\'');
  if (open != std::string::npos)
    line.replace(open, close == open ? std::string::npos : close - open + 1, "'?'");
  for (const std::string named : {"unknown key", "duplicate key"})
    if (const std::size_t at = line.find(named); at != std::string::npos)
      line.resize(at + named.size());
  std::string kind;
  for (const char c : line)
    if (c < '0' || c > '9')
      kind += c;
    else if (kind.empty() || kind.back() != '#')
      kind += '#';
  return kind;
}

TEST(FuzzConfig, ShippedConfigsPassTheReaders) {
  const auto corpus = make_corpus();
  ASSERT_EQ(corpus.size(), kConfigs.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(kConfigs[i]);
    const std::string out = outcome_of(corpus[i]);
    // Keys of a scenario's own section ([rayleigh], [shock_tube], ...) are
    // read by its builder, which the target does not run.
    if (!out.empty()) {
      EXPECT_NE(out.find("unknown key"), std::string::npos) << out;
    }
  }
  EXPECT_EQ(outcome_of(corpus[0]), "");  // cloud_collapse.cfg
  EXPECT_EQ(outcome_of(corpus[4]), "");  // wall_erosion.cfg
}

TEST(FuzzConfig, SeededMutantsAreAcceptedOrRejectedCleanly) {
  const auto corpus = make_corpus();
  Mutator mutator(corpus);
  std::map<std::string, int> rejections;  // by error kind
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string what;
    const std::string m = mutator.next(what);
    try {
      const std::string out = outcome_of(m);
      if (out.empty())
        ++accepted;
      else
        ++rejections[kind_of(out)];
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " (" << what
                    << ") escaped the readers with another exception: " << e.what();
    }
  }
  // The parser's checks and the readers' own: the mutants reach each.
  const auto seen = [&](const std::string& text) {
    for (const auto& [kind, n] : rejections)
      if (kind.find(text) != std::string::npos) return true;
    return false;
  };
  for (const char* check :
       {"malformed section header", "invalid section name", "expected '?'",
        "invalid key name", "before any [section]", "duplicate key", "unterminated quoted value",
        "expected integer", "integer out of range", "expected number", "expected boolean",
        "expected three integers", "unknown boundary condition", "must be positive",
        "cfl must be", "weno_order must be", "gamma must exceed", "no stop criterion",
        "checkpoint_keep must be", "unknown key"})
    EXPECT_TRUE(seen(check)) << "no mutant reached: " << check;
  EXPECT_GT(accepted, 0);
  std::string table;
  for (const auto& [kind, n] : rejections) table += "  " + std::to_string(n) + "  " + kind + "\n";
  std::printf("%d mutants, %d accepted, rejections by kind:\n%s", kMutants, accepted,
              table.c_str());
}

}  // namespace
}  // namespace mpcf
