// Benchmark input generator and output checker. Built apart from the
// program: it includes no header from src/ and links no program code, so a
// change to the program cannot change the inputs or the verdicts.
//
//   pbtool gen WORKLOAD SEED DIR
//       Writes the workload's inputs under DIR. Every log file F gets a
//       ground-truth label file with one byte per line: bits 0-6 are the
//       format id (127 = free-text noise), bit 7 marks the first line of a
//       record.
//   pbtool check JOBS
//       Each line of JOBS is one check, tab-separated:
//         INPUT  LABELS  TEMPLATES  OUTDIR  LATE_BOUND
//       TEMPLATES holds one template per line in the program's display
//       form; OUTDIR holds type<t>.csv and noise.txt. LATE_BOUND is -1 for
//       batch outputs, or the number of ground-truth record lines a
//       streaming run may leave as noise before its template set evolves.
//       Prints one line per job: "OK <input> rows=<t0>,<t1>,... noise=<n>
//       late=<n>" or "FAIL <input>: <reason>".
//
// The checker rebuilds the program's decision for every input line from
// the output files alone: tables are consumed in file order, each row is
// re-rendered through its template's literals and must reproduce the input
// bytes at the current line, and noise.txt must hold the remaining lines
// verbatim. That proves conservation and lossless output at once; the
// reconstructed records are then compared with the generator's labels.

#include <sys/mman.h>
#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

constexpr uint8_t kNoise = 127;
constexpr uint8_t kStart = 0x80;

// ----------------------------------------------------------------- random --

struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
  template <typename T, size_t N>
  const T& Pick(const T (&arr)[N]) {
    return arr[Next() % N];
  }
};

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x100000001B3ull ^ b);
  return r.Next();
}

// ------------------------------------------------------------------ output --

struct Log {
  std::string text;
  std::string labels;

  void Line(uint8_t format, bool start, const char* fmt, ...)
      __attribute__((format(printf, 4, 5))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0 || static_cast<size_t>(n) >= sizeof(buf)) std::abort();
    text.append(buf, static_cast<size_t>(n));
    text.push_back('\n');
    labels.push_back(static_cast<char>(format | (start ? kStart : 0)));
  }
};

const char* kWords[] = {
    "alpha", "bravo", "cache", "delta", "disk",  "echo",   "fetch", "gamma",
    "index", "join",  "kilo",  "lima",  "merge", "node",   "omega", "parse",
    "queue", "relay", "shard", "sigma", "table", "tensor", "unit",  "vector",
    "wave",  "xray",  "yield", "zone",  "batch", "commit", "drain", "flush"};
const char* kLevels[] = {"INFO", "INFO", "INFO", "WARN", "DEBUG", "ERROR"};
const char* kOps[] = {"read", "write", "scan", "delete", "update", "list"};
const char* kMethods[] = {"GET", "GET", "GET", "POST", "PUT", "DELETE"};
const char* kResources[] = {"users", "items", "orders", "carts", "sessions"};
const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
const char* kDaemons[] = {"cron", "backupd", "rsyncd", "logrotate", "certd"};
const char* kStates[] = {"ok", "ok", "ok", "retry", "failed", "skipped"};
const char* kMetricA[] = {"cpu", "mem", "disk", "net", "gc"};
const char* kMetricB[] = {"load", "used", "free", "rx", "pause"};
const char* kCurrencies[] = {"EUR", "USD", "GBP", "JPY", "CHF"};
const char* kHttpText[] = {"OK", "OK", "OK", "Created", "NotFound", "Error"};
const int kHttpCode[] = {200, 200, 200, 201, 404, 500};
const char* kModules[] = {"ingest", "worker", "sched", "store", "api"};
const char* kFuncs[] = {"run", "step", "load", "flush", "handle", "retry"};
const char* kBranches[] = {"main", "dev", "release", "hotfix", "queue"};

std::string Name(Rng& r) {
  static const char kCons[] = "bdfgklmnprstvz";
  static const char kVow[] = "aeiou";
  std::string s;
  int syl = r.Range(2, 4);
  for (int i = 0; i < syl; ++i) {
    s.push_back(kCons[r.Next() % (sizeof(kCons) - 1)]);
    s.push_back(kVow[r.Next() % (sizeof(kVow) - 1)]);
  }
  return s;
}

std::string Alnum(Rng& r, int len) {
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string s;
  for (int i = 0; i < len; ++i) s.push_back(kChars[r.Next() % 62]);
  return s;
}

// A wall clock that only moves forward, so timestamps look like a log's.
struct Clock {
  int year, month, day;
  int64_t ms;
  explicit Clock(Rng& r)
      : year(2026), month(r.Range(1, 12)), day(r.Range(1, 28)),
        ms(static_cast<int64_t>(r.Range(0, 80000)) * 1000) {}
  void Tick(Rng& r) { ms = (ms + r.Range(1, 900)) % (86400LL * 1000); }
  int H() const { return static_cast<int>(ms / 3600000); }
  int M() const { return static_cast<int>(ms / 60000 % 60); }
  int S() const { return static_cast<int>(ms / 1000 % 60); }
  int Ms() const { return static_cast<int>(ms % 1000); }
};

// ----------------------------------------------------------------- formats --
//
// Format ids are the label values. Every format has a fixed shape: a record
// template is what DATAMARAN should recover from it.

enum Format : uint8_t {
  kApp = 0,     // date time LEVEL [worker-N] k=v ... status=N
  kAccess,      // common log format
  kKv,          // k=v;k=v;k=v
  kSyslog,      // Mon DD HH:MM:SS host daemon[pid]: k=v k=v
  kCsv,         // five comma-separated columns
  kJson,        // flat JSON object
  kPipe,        // pipe-separated columns
  kMetric,      // metric.name k=v k=v k=v
  kTask,        // 4-line block: task N { cpu: mem: }
  kTrace,       // 3-line error with two frames
  kTxn,         // 8-line BEGIN/END transaction block
  kHttp,        // 3-line request/response exchange
  kSection,     // 5-line ini-style section
  kTick,        // "tick N": the generic single-line format of the fault pair
  kAccount,     // 7-line "key: value" block of the fault pair
  kFormatCount
};

struct Gen {
  Rng r;
  Clock c;
  Log* out;
  Gen(uint64_t seed, Log* log) : r(seed), c(r), out(log) {}

  void Noise() {
    // Open-vocabulary words without punctuation: no template can claim
    // these lines, and they share no shape a template could compress.
    std::string s;
    int words = r.Range(3, 14);
    for (int w = 0; w < words; ++w) {
      if (w > 0) s.push_back(' ');
      s += Alnum(r, r.Range(2, 9));
    }
    out->Line(kNoise, false, "%s", s.c_str());
  }

  void Emit(Format f) {
    c.Tick(r);
    switch (f) {
      case kApp:
        out->Line(f, true,
                  "%04d-%02d-%02d %02d:%02d:%02d.%03d %s [worker-%d] "
                  "req=%08" PRIx64 " user=%s op=%s ms=%d status=%d",
                  c.year, c.month, c.day, c.H(), c.M(), c.S(), c.Ms(),
                  r.Pick(kLevels), r.Range(0, 31), r.Next() & 0xffffffffu,
                  Name(r).c_str(), r.Pick(kOps), r.Range(1, 4000),
                  r.Chance(0.9) ? 200 : r.Range(400, 503));
        break;
      case kAccess:
        out->Line(f, true,
                  "%d.%d.%d.%d - - [%02d/%s/%04d:%02d:%02d:%02d +0000] "
                  "\"%s /api/%s/%d HTTP/1.1\" %d %d",
                  r.Range(10, 250), r.Range(0, 255), r.Range(0, 255),
                  r.Range(1, 254), c.day, kMonths[c.month - 1], c.year, c.H(),
                  c.M(), c.S(), r.Pick(kMethods), r.Pick(kResources),
                  r.Range(1, 99999), r.Chance(0.9) ? 200 : 404,
                  r.Range(120, 90000));
        break;
      case kKv:
        out->Line(f, true, "id=%d;kind=%s;score=0.%03d", r.Range(1, 999999),
                  r.Pick(kWords), r.Range(0, 999));
        break;
      case kSyslog:
        out->Line(f, true, "%s %02d %02d:%02d:%02d host%02d %s[%d]: job=%s rc=%d",
                  kMonths[c.month - 1], c.day, c.H(), c.M(), c.S(),
                  r.Range(1, 40), r.Pick(kDaemons), r.Range(100, 65000),
                  r.Pick(kWords), r.Chance(0.9) ? 0 : r.Range(1, 127));
        break;
      case kCsv:
        out->Line(f, true, "%d,%s,%d.%03d,%04d-%02d-%02d,%s",
                  r.Range(1, 9999999), Name(r).c_str(), r.Range(0, 999),
                  r.Range(0, 999), c.year, c.month, r.Range(1, 28),
                  r.Pick(kStates));
        break;
      case kJson:
        out->Line(f, true, "{\"id\":%d,\"name\":\"%s\",\"v\":%d.%02d,\"ok\":%s}",
                  r.Range(1, 999999), Name(r).c_str(), r.Range(0, 500),
                  r.Range(0, 99), r.Chance(0.8) ? "true" : "false");
        break;
      case kPipe:
        out->Line(f, true, "%04d-%02d-%02d|%02d:%02d:%02d|%s|user%d|%d",
                  c.year, c.month, c.day, c.H(), c.M(), c.S(), r.Pick(kWords),
                  r.Range(1, 5000), r.Range(0, 100000));
        break;
      case kMetric:
        out->Line(f, true, "%s.%s host=web%d value=%d.%02d ts=%lld",
                  r.Pick(kMetricA), r.Pick(kMetricB), r.Range(1, 64),
                  r.Range(0, 1000), r.Range(0, 99),
                  1770000000LL + c.ms / 1000);
        break;
      case kTask:
        out->Line(f, true, "task %d {", r.Range(1, 99999));
        out->Line(f, false, "  cpu: %d.%d", r.Range(0, 99), r.Range(0, 9));
        out->Line(f, false, "  mem: %d", r.Range(100, 65000));
        out->Line(f, false, "}");
        break;
      case kTrace:
        out->Line(f, true, "ERROR %04d-%02d-%02d %02d:%02d:%02d job %d failed",
                  c.year, c.month, c.day, c.H(), c.M(), c.S(),
                  r.Range(1, 99999));
        for (int k = 0; k < 2; ++k) {
          out->Line(f, false, "    at %s.%s(%s.py:%d)", r.Pick(kModules),
                    r.Pick(kFuncs), r.Pick(kModules), r.Range(1, 900));
        }
        break;
      case kTxn:
        out->Line(f, true, "BEGIN txn %d", r.Range(1, 9999999));
        out->Line(f, false, "  from: acct%d", r.Range(1000, 99999));
        out->Line(f, false, "  to: acct%d", r.Range(1000, 99999));
        out->Line(f, false, "  amount: %d.%02d", r.Range(1, 20000),
                  r.Range(0, 99));
        out->Line(f, false, "  currency: %s", r.Pick(kCurrencies));
        out->Line(f, false, "  status: %s", r.Pick(kStates));
        out->Line(f, false, "  ts: %lld", 1770000000LL + c.ms / 1000);
        out->Line(f, false, "END");
        break;
      case kHttp: {
        int k = r.Range(0, 5);
        out->Line(f, true, "> %s /api/%s/%d", r.Pick(kMethods),
                  r.Pick(kResources), r.Range(1, 99999));
        out->Line(f, false, "< %d %s", kHttpCode[k], kHttpText[k]);
        out->Line(f, false, "< len=%d", r.Range(0, 90000));
        break;
      }
      case kSection:
        out->Line(f, true, "[job-%d]", r.Range(1, 99999));
        out->Line(f, false, "name = %s", Name(r).c_str());
        out->Line(f, false, "retries = %d", r.Range(0, 9));
        out->Line(f, false, "timeout = %ds", r.Range(1, 600));
        out->Line(f, false, "---");
        break;
      case kTick:
        out->Line(f, true, "tick %d", r.Range(1, 999999999));
        break;
      case kAccount:
        out->Line(f, true, "user: %s", Name(r).c_str());
        out->Line(f, false, "repo: %s", Name(r).c_str());
        out->Line(f, false, "commits: %d", r.Range(1, 400));
        out->Line(f, false, "added: %d", r.Range(1, 9999));
        out->Line(f, false, "deleted: %d", r.Range(1, 9999));
        out->Line(f, false, "branch: %s", r.Pick(kBranches));
        out->Line(f, false, "--------");
        break;
      case kFormatCount:
        std::abort();
    }
  }
};

/// One component of a file's mix: a format (or kNoise) and its weight.
struct Part {
  uint8_t format;
  int weight;
};

/// Emits records drawn from `mix` until `bytes` is reached.
void Fill(Gen& g, const std::vector<Part>& mix, size_t bytes) {
  int total = 0;
  for (const Part& p : mix) total += p.weight;
  while (g.out->text.size() < bytes) {
    int x = g.r.Range(0, total - 1);
    for (const Part& p : mix) {
      if (x < p.weight) {
        if (p.format == kNoise) {
          g.Noise();
        } else {
          g.Emit(static_cast<Format>(p.format));
        }
        break;
      }
      x -= p.weight;
    }
  }
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "pbtool: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
}

void WriteLog(const std::string& dir, const std::string& rel, const Log& log) {
  WriteFile(dir + "/" + rel, log.text);
  WriteFile(dir + "/labels/" + rel + ".lab", log.labels);
}

// The batch mix of the interleaved application log: 50% app-log, 35%
// access-log, 12% k=v;... lines and 3% free text.
const std::vector<Part> kBatchMix = {
    {kApp, 50}, {kAccess, 35}, {kKv, 12}, {kNoise, 3}};

struct LakeFamily {
  const char* name;
  std::vector<Part> mix;
  int files;
};

// The lake: single-line, multi-line, interleaved and unstructured
// families, each repeated across several files so that catalog clustering
// matters. Noise lines are sprinkled through structured files.
const std::vector<LakeFamily>& LakeFamilies() {
  static const std::vector<LakeFamily> kFamilies = {
      {"app", {{kApp, 99}, {kNoise, 1}}, 6},
      {"access", {{kAccess, 99}, {kNoise, 1}}, 6},
      {"kv", {{kKv, 1}}, 6},
      {"syslog", {{kSyslog, 98}, {kNoise, 2}}, 6},
      {"csv", {{kCsv, 1}}, 6},
      {"json", {{kJson, 1}}, 6},
      {"pipe", {{kPipe, 99}, {kNoise, 1}}, 6},
      {"metric", {{kMetric, 1}}, 6},
      {"task", {{kTask, 1}}, 6},
      {"trace", {{kTrace, 98}, {kNoise, 2}}, 6},
      {"txn", {{kTxn, 1}}, 6},
      {"http", {{kHttp, 1}}, 6},
      {"section", {{kSection, 1}}, 6},
      {"mix-app-kv", {{kApp, 60}, {kKv, 37}, {kNoise, 3}}, 5},
      {"mix-syslog-trace", {{kSyslog, 70}, {kTrace, 30}}, 5},
      {"mix-access-http", {{kAccess, 60}, {kHttp, 40}}, 5},
      {"text", {{kNoise, 1}}, 5},
  };
  return kFamilies;
}

// Fixed seeds for the fault pair: these two files are the same bytes for
// every benchmark seed.
constexpr uint64_t kPairSeed = 0x5eed0001;

int Generate(const std::string& workload, uint64_t seed,
             const std::string& dir) {
  auto one = [&](const std::string& rel, uint64_t s,
                 const std::vector<Part>& mix, size_t bytes) {
    Log log;
    Gen g(s, &log);
    Fill(g, mix, bytes);
    WriteLog(dir, rel, log);
  };
  if (workload == "batch_cold") {
    one("batch.log", Mix(seed, 1), kBatchMix, 64u << 20);
  } else if (workload == "warm_extract") {
    one("warm.log", Mix(seed, 2), kBatchMix, 64u << 20);
    one("sibling.log", Mix(seed, 3), kBatchMix, 2u << 20);
  } else if (workload == "follow_stream") {
    // Drift: the app log runs alone for the first half; then access-log
    // lines appear and make up 70% of the rest.
    Log log;
    Gen g(Mix(seed, 4), &log);
    const size_t total = 288u << 20;
    Fill(g, {{kApp, 97}, {kNoise, 3}}, total / 2);
    Fill(g, {{kApp, 27}, {kAccess, 70}, {kNoise, 3}}, total);
    WriteLog(dir, "stream.log", log);
  } else if (workload == "lake_crawl") {
    {
      Log log;
      Gen g(kPairSeed, &log);
      Fill(g, {{kTick, 1}}, 1u << 20);
      WriteLog(dir, "lake/00-pair/1-ticks.log", log);
    }
    {
      Log log;
      Gen g(kPairSeed + 1, &log);
      Fill(g, {{kAccount, 1}}, 1u << 20);
      WriteLog(dir, "lake/00-pair/2-accounts.log", log);
    }
    uint64_t k = 0;
    for (const LakeFamily& fam : LakeFamilies()) {
      for (int i = 0; i < fam.files; ++i) {
        const uint64_t s = Mix(seed, 100 + k++);
        Rng sizer(s);
        const size_t bytes = static_cast<size_t>(sizer.Range(800, 1200)) << 10;
        char rel[128];
        std::snprintf(rel, sizeof(rel), "lake/%s/%s-%d.log", fam.name,
                      fam.name, i);
        one(rel, s + 1, fam.mix, bytes);
      }
    }
  } else {
    std::fprintf(stderr, "pbtool: unknown workload %s\n", workload.c_str());
    return 2;
  }
  return 0;
}

// ----------------------------------------------------------------- checker --

/// Read-only mapping of a whole file (empty files map to an empty view).
class Mapped {
 public:
  explicit Mapped(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return;
    struct stat st;
    if (::fstat(fd, &st) == 0) {
      ok_ = true;
      size_ = static_cast<size_t>(st.st_size);
      if (size_ > 0) {
        void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (p == MAP_FAILED) {
          ok_ = false;
          size_ = 0;
        } else {
          data_ = static_cast<const char*>(p);
        }
      }
    }
    ::close(fd);
  }
  ~Mapped() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;
  bool ok() const { return ok_; }
  std::string_view view() const { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool ok_ = false;
};

/// Template tree parsed from the canonical form: 'F' is a field, '\c' a
/// literal c, "(E x)*E" an array of element E with separator x, anything
/// else a literal.
struct Node {
  enum Kind { kField, kChar, kSeq, kArray } kind = kSeq;
  char ch = 0;
  std::vector<Node> kids;  // kSeq: sequence; kArray: the element sequence
  int leaves = 0;          // field leaves in this subtree
};

bool ParseSeq(std::string_view s, size_t* i, bool in_group, Node* out,
              std::string* err);

void Serialize(const Node& n, std::string* out) {
  switch (n.kind) {
    case Node::kField:
      out->push_back('F');
      break;
    case Node::kChar:
      if (n.ch == '(' || n.ch == ')' || n.ch == '*' || n.ch == '\\') {
        out->push_back('\\');
      }
      out->push_back(n.ch);
      break;
    case Node::kSeq:
      for (const Node& k : n.kids) Serialize(k, out);
      break;
    case Node::kArray: {
      std::string elem;
      for (const Node& k : n.kids) Serialize(k, &elem);
      Node sep{Node::kChar, n.ch, {}, 0};
      out->push_back('(');
      out->append(elem);
      Serialize(sep, out);
      out->append(")*");
      out->append(elem);
      break;
    }
  }
}

bool ParseSeq(std::string_view s, size_t* i, bool in_group, Node* out,
              std::string* err) {
  out->kind = Node::kSeq;
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == ')') {
      if (!in_group) {
        *err = "unbalanced ')'";
        return false;
      }
      return true;
    }
    Node n;
    if (c == 'F') {
      n.kind = Node::kField;
      n.leaves = 1;
      ++*i;
    } else if (c == '\\') {
      if (*i + 1 >= s.size()) {
        *err = "dangling escape";
        return false;
      }
      n.kind = Node::kChar;
      n.ch = s[*i + 1];
      *i += 2;
    } else if (c == '(') {
      ++*i;
      Node group;
      if (!ParseSeq(s, i, true, &group, err)) return false;
      if (*i + 1 >= s.size() || s[*i] != ')' || s[*i + 1] != '*' ||
          group.kids.empty() || group.kids.back().kind != Node::kChar) {
        *err = "malformed array";
        return false;
      }
      *i += 2;
      n.kind = Node::kArray;
      n.ch = group.kids.back().ch;
      group.kids.pop_back();
      n.kids = std::move(group.kids);
      for (const Node& k : n.kids) n.leaves += k.leaves;
      std::string elem;
      for (const Node& k : n.kids) Serialize(k, &elem);
      if (s.substr(*i, elem.size()) != elem) {
        *err = "array element not repeated after ')*'";
        return false;
      }
      *i += elem.size();
    } else {
      n.kind = Node::kChar;
      n.ch = c;
      ++*i;
    }
    out->leaves += n.leaves;
    out->kids.push_back(std::move(n));
  }
  if (in_group) {
    *err = "unterminated array";
    return false;
  }
  return true;
}

/// Inverse of the program's display escaping: \n \t \r \\ and \xHH.
bool Unescape(std::string_view s, std::string* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out->push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case '\\': out->push_back('\\'); break;
      case 'x': {
        if (i + 2 >= s.size()) return false;
        out->push_back(static_cast<char>(
            std::stoi(std::string(s.substr(i + 1, 2)), nullptr, 16)));
        i += 2;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

/// Renders `n` with the cells [leaf, leaf + n.leaves) of a denormalized row.
/// Array repetitions are recovered by splitting each cell on the array's
/// separator, which no field value can contain.
bool Render(const Node& n, const std::vector<std::string_view>& cells,
            size_t leaf, std::string* out) {
  switch (n.kind) {
    case Node::kField:
      if (leaf >= cells.size()) return false;
      out->append(cells[leaf]);
      return true;
    case Node::kChar:
      out->push_back(n.ch);
      return true;
    case Node::kSeq:
      for (const Node& k : n.kids) {
        if (!Render(k, cells, leaf, out)) return false;
        leaf += static_cast<size_t>(k.leaves);
      }
      return true;
    case Node::kArray: {
      if (n.leaves == 0 || leaf + static_cast<size_t>(n.leaves) > cells.size()) {
        return false;
      }
      std::vector<std::vector<std::string_view>> parts(
          static_cast<size_t>(n.leaves));
      size_t reps = 0;
      for (size_t j = 0; j < parts.size(); ++j) {
        std::string_view cell = cells[leaf + j];
        size_t pos = 0;
        for (;;) {
          size_t next = cell.find(n.ch, pos);
          parts[j].push_back(cell.substr(pos, next - pos));
          if (next == std::string_view::npos) break;
          pos = next + 1;
        }
        if (j == 0) reps = parts[j].size();
        if (parts[j].size() != reps) return false;
      }
      Node elem{Node::kSeq, 0, n.kids, n.leaves};
      std::vector<std::string_view> rep_cells(cells);
      for (size_t r = 0; r < reps; ++r) {
        if (r > 0) out->push_back(n.ch);
        for (size_t j = 0; j < parts.size(); ++j) {
          rep_cells[leaf + j] = parts[j][r];
        }
        if (!Render(elem, rep_cells, leaf, out)) return false;
      }
      return true;
    }
  }
  return false;
}

/// Streaming RFC-4180 reader over one mapped CSV table.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text) : text_(text) {}
  bool done() const { return pos_ >= text_.size(); }
  /// Parses the next row; false on malformed quoting.
  bool Next(std::vector<std::string_view>* cells) {
    cells->clear();
    owned_.clear();
    std::vector<std::pair<bool, size_t>> slots;  // (owned?, index)
    std::vector<std::string_view> plain;
    for (;;) {
      if (pos_ < text_.size() && text_[pos_] == '"') {
        std::string v;
        ++pos_;
        for (;;) {
          if (pos_ >= text_.size()) return false;
          char c = text_[pos_++];
          if (c == '"') {
            if (pos_ < text_.size() && text_[pos_] == '"') {
              v.push_back('"');
              ++pos_;
            } else {
              break;
            }
          } else {
            v.push_back(c);
          }
        }
        owned_.push_back(std::move(v));
        slots.emplace_back(true, owned_.size() - 1);
      } else {
        size_t end = pos_;
        while (end < text_.size() && text_[end] != ',' && text_[end] != '\n') {
          ++end;
        }
        plain.push_back(text_.substr(pos_, end - pos_));
        slots.emplace_back(false, plain.size() - 1);
        pos_ = end;
      }
      if (pos_ >= text_.size()) return false;  // rows end with '\n'
      const char sep = text_[pos_++];
      if (sep == '\n') break;
      if (sep != ',') return false;
    }
    for (const auto& [is_owned, idx] : slots) {
      cells->push_back(is_owned ? std::string_view(owned_[idx]) : plain[idx]);
    }
    return true;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::vector<std::string> owned_;
};

struct Table {
  Node tmpl;
  int span = 0;
  std::unique_ptr<Mapped> file;
  std::unique_ptr<CsvReader> reader;
  std::vector<std::string_view> cells;
  std::string rendered;  // next row, re-rendered; empty when exhausted
  size_t rows = 0;
  int format = -1;  // ground-truth format of its records (-1 = none yet)
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Loads the next row of `t` into t->rendered; an error string on failure.
std::string Advance(Table* t, size_t table_index) {
  t->rendered.clear();
  if (t->reader->done()) return "";
  if (!t->reader->Next(&t->cells)) {
    return Fmt("type%zu.csv: malformed CSV after row %zu", table_index,
               t->rows);
  }
  if (t->cells.size() != static_cast<size_t>(t->tmpl.leaves)) {
    return Fmt("type%zu.csv row %zu: %zu cells for %d fields", table_index,
               t->rows + 1, t->cells.size(), t->tmpl.leaves);
  }
  if (!Render(t->tmpl, t->cells, 0, &t->rendered) || t->rendered.empty()) {
    return Fmt("type%zu.csv row %zu cannot be rendered through its template",
               table_index, t->rows + 1);
  }
  return "";
}

std::string CheckOne(const std::string& input, const std::string& labels_path,
                     const std::string& templates_path,
                     const std::string& out_dir, long late_bound,
                     std::string* ok_line) {
  Mapped in(input), lab(labels_path);
  if (!in.ok() || !lab.ok()) return "cannot read input or labels";
  const std::string_view text = in.view();
  const std::string_view labels = lab.view();
  std::vector<size_t> line_begin;
  for (size_t p = 0; p < text.size();) {
    line_begin.push_back(p);
    size_t nl = text.find('\n', p);
    if (nl == std::string_view::npos) return "input does not end with '\\n'";
    p = nl + 1;
  }
  const size_t n = line_begin.size();
  line_begin.push_back(text.size());
  if (labels.size() != n) return "label count differs from line count";

  std::vector<Table> tables;
  {
    std::ifstream tf(templates_path);
    if (!tf) return "cannot read templates";
    std::string display;
    while (std::getline(tf, display)) {
      if (display.empty()) continue;
      Table t;
      std::string canonical, err;
      size_t i = 0;
      if (!Unescape(display, &canonical) ||
          !ParseSeq(canonical, &i, false, &t.tmpl, &err)) {
        return "unparsable template " + display + ": " + err;
      }
      for (char ch : canonical) t.span += ch == '\n';
      tables.push_back(std::move(t));
    }
  }
  std::unique_ptr<Mapped> noise_file;
  std::string_view noise;
  if (tables.empty() && !std::filesystem::exists(out_dir)) {
    // No structure found: the program writes no tables and every line is
    // noise by definition.
  } else {
    for (size_t t = 0; t < tables.size(); ++t) {
      tables[t].file =
          std::make_unique<Mapped>(Fmt("%s/type%zu.csv", out_dir.c_str(), t));
      if (!tables[t].file->ok()) return Fmt("missing type%zu.csv", t);
      tables[t].reader = std::make_unique<CsvReader>(tables[t].file->view());
      std::vector<std::string_view> header;
      if (!tables[t].reader->Next(&header) ||
          header.size() != static_cast<size_t>(tables[t].tmpl.leaves)) {
        return Fmt("type%zu.csv header does not match its template", t);
      }
      std::string err = Advance(&tables[t], t);
      if (!err.empty()) return err;
    }
    noise_file = std::make_unique<Mapped>(out_dir + "/noise.txt");
    if (!noise_file->ok()) return "missing noise.txt";
    noise = noise_file->view();
  }

  std::vector<int> table_of_format(256, -1);
  std::vector<char> format_seen(256, 0);
  size_t noise_pos = 0, noise_lines = 0, late = 0;
  size_t i = 0;
  while (i < n) {
    const std::string_view rest = text.substr(line_begin[i]);
    const uint8_t l = static_cast<uint8_t>(labels[i]);
    const uint8_t f = l & 0x7f;
    if (f != kNoise) format_seen[f] = 1;
    size_t chosen = tables.size();
    for (size_t t = 0; t < tables.size(); ++t) {
      const std::string& r = tables[t].rendered;
      if (!r.empty() && rest.substr(0, r.size()) == r) {
        chosen = t;
        break;
      }
    }
    if (chosen < tables.size()) {
      Table& t = tables[chosen];
      const size_t span = static_cast<size_t>(t.span);
      // Record boundaries must equal one ground-truth record exactly.
      if (f == kNoise || (l & kStart) == 0) {
        return Fmt("line %zu: type%zu record does not start a ground-truth "
                   "record",
                   i + 1, chosen);
      }
      for (size_t k = 1; k < span; ++k) {
        const uint8_t lk = static_cast<uint8_t>(labels[i + k]);
        if ((lk & kStart) != 0 || (lk & 0x7f) != f) {
          return Fmt("line %zu: type%zu record spans %zu lines across a "
                     "ground-truth record boundary",
                     i + 1, chosen, span);
        }
      }
      if (i + span < n) {
        const uint8_t ln = static_cast<uint8_t>(labels[i + span]);
        if ((ln & kStart) == 0 && (ln & 0x7f) != kNoise) {
          return Fmt("line %zu: type%zu record of %zu lines splits a "
                     "longer ground-truth record",
                     i + 1, chosen, span);
        }
      }
      if (t.format < 0) t.format = f;
      if (t.format != f) {
        return Fmt("type%zu mixes ground-truth formats %d and %d", chosen,
                   t.format, f);
      }
      if (table_of_format[f] < 0) table_of_format[f] = static_cast<int>(chosen);
      if (table_of_format[f] != static_cast<int>(chosen)) {
        return Fmt("format %d is split across type%d and type%zu", f,
                   table_of_format[f], chosen);
      }
      t.rows++;
      std::string err = Advance(&t, chosen);
      if (!err.empty()) return err;
      i += span;
      continue;
    }
    const std::string_view line =
        text.substr(line_begin[i], line_begin[i + 1] - line_begin[i]);
    if (noise_file == nullptr) {
      // No output at all: the line counts as noise without a file.
    } else if (noise.substr(noise_pos, line.size()) == line) {
      noise_pos += line.size();
    } else {
      return Fmt("line %zu is neither the next row of any table nor the "
                 "next noise line",
                 i + 1);
    }
    noise_lines++;
    if (f != kNoise) {
      if (late_bound < 0) {
        return Fmt("line %zu: ground-truth format %d line left as noise",
                   i + 1, f);
      }
      late++;
    }
    ++i;
  }
  for (size_t t = 0; t < tables.size(); ++t) {
    if (!tables[t].rendered.empty()) {
      return Fmt("type%zu.csv has rows beyond the input", t);
    }
  }
  if (noise_pos != noise.size()) return "noise.txt has lines beyond the input";
  for (int f = 0; f < 256; ++f) {
    if (format_seen[f] && table_of_format[f] < 0) {
      return Fmt("format %d has no table", f);
    }
  }
  if (late_bound >= 0 && late > static_cast<size_t>(late_bound)) {
    return Fmt("%zu record lines left as noise before evolution (bound %ld)",
               late, late_bound);
  }
  std::string rows;
  for (size_t t = 0; t < tables.size(); ++t) {
    if (t > 0) rows += ",";
    rows += std::to_string(tables[t].rows);
  }
  *ok_line = Fmt("rows=%s noise=%zu late=%zu", rows.c_str(), noise_lines, late);
  return "";
}

int Check(const std::string& jobs_path) {
  std::ifstream jobs(jobs_path);
  if (!jobs) {
    std::fprintf(stderr, "pbtool: cannot read %s\n", jobs_path.c_str());
    return 2;
  }
  std::string line;
  while (std::getline(jobs, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, '\t')) f.push_back(field);
    if (f.size() != 5) {
      std::fprintf(stderr, "pbtool: bad job line: %s\n", line.c_str());
      return 2;
    }
    std::string ok;
    std::string err = CheckOne(f[0], f[1], f[2], f[3], std::stol(f[4]), &ok);
    if (err.empty()) {
      std::printf("OK %s %s\n", f[0].c_str(), ok.c_str());
    } else {
      std::printf("FAIL %s: %s\n", f[0].c_str(), err.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "gen") == 0) {
    return Generate(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  if (argc == 3 && std::strcmp(argv[1], "check") == 0) return Check(argv[2]);
  std::fprintf(stderr,
               "usage: pbtool gen WORKLOAD SEED DIR\n"
               "       pbtool check JOBS\n");
  return 2;
}
