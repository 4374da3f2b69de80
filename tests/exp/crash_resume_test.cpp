// End-to-end crash-safety: SIGKILL the real coopnet_run binary mid-sweep,
// resume from its journal, and require the merged JSON artifact to be
// byte-identical to an uninterrupted run. This is the no-cooperation
// crash case -- SIGKILL cannot be caught, so everything rides on the
// fsync-per-record journal and the torn-line-tolerant loader.
//
// The binary paths come from CMake as COOPNET_RUN_BIN and
// EXT_PROPSHARE_BIN.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t cell_records(const std::string& journal_path) {
  const std::string content = read_file(journal_path);
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = content.find("\"kind\":\"cell\"", pos)) !=
         std::string::npos) {
    ++count;
    pos += 1;
  }
  return count;
}

// fork/exec coopnet_run with stdout discarded and stderr sent to
// `stderr_path`; returns the pid.
pid_t spawn(const std::vector<std::string>& args,
            const std::string& stderr_path = "/dev/null") {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    const int err =
        ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) {
      ::dup2(err, STDERR_FILENO);
      ::close(err);
    }
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

int run_and_wait(const std::vector<std::string>& args,
                 const std::string& stderr_path = "/dev/null") {
  const pid_t pid = spawn(args, stderr_path);
  if (pid < 0) return -1;
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

std::vector<std::string> sweep_args(const std::string& journal,
                                    const std::string& json_out,
                                    bool resume) {
  std::vector<std::string> args = {
      COOPNET_RUN_BIN,  "--algo",   "BitTorrent", "--n",    "120",
      "--file-mb",      "8",        "--reps",     "12",     "--jobs",
      "2",              "--seed",   "11",         "--cell-timeout", "300",
      "--json-out",     json_out};
  args.push_back(resume ? "--resume" : "--journal");
  args.push_back(journal);
  return args;
}

TEST(CrashResume, SigkilledSweepResumesByteIdentically) {
  char tmpl[] = "/tmp/coopnet_crash_resume_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ref_journal = dir + "/ref.jsonl";
  const std::string ref_json = dir + "/ref.json";
  const std::string run_journal = dir + "/run.jsonl";
  const std::string run_json = dir + "/run.json";

  // Uninterrupted reference.
  ASSERT_EQ(run_and_wait(sweep_args(ref_journal, ref_json, false)), 0);
  ASSERT_FALSE(read_file(ref_json).empty());

  // Victim: SIGKILL once a few replications have been journaled. If the
  // sweep wins the race and finishes first, the kill is a no-op and the
  // resume below degenerates to "all cells journaled" -- still a valid
  // (if weaker) round trip, so the test stays robust on slow machines.
  const pid_t victim = spawn(sweep_args(run_journal, run_json, false));
  ASSERT_GT(victim, 0);
  for (int i = 0; i < 3000 && cell_records(run_journal) < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(victim, SIGKILL);
  int status = 0;
  ::waitpid(victim, &status, 0);

  // Resume from whatever the kill left behind (possibly a torn trailing
  // record) and merge bit-identically.
  ASSERT_EQ(run_and_wait(sweep_args(run_journal, run_json, true)), 0);
  const std::string expected = read_file(ref_json);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(run_json), expected);

  for (const auto& f : {ref_journal, ref_json, run_journal, run_json}) {
    std::remove(f.c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(CrashResume, SigtermDrainsFlushesJournalAndExits143) {
  char tmpl[] = "/tmp/coopnet_sigterm_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string journal = dir + "/run.jsonl";
  const std::string json_out = dir + "/run.json";
  const std::string ref_json = dir + "/ref.json";

  const pid_t victim = spawn(sweep_args(journal, json_out, false));
  ASSERT_GT(victim, 0);
  for (int i = 0; i < 3000 && cell_records(journal) < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(victim, SIGTERM);
  int status = 0;
  ::waitpid(victim, &status, 0);
  // Cooperative shutdown: drain, flush, exit(128+15). If the sweep
  // finished before the signal landed, plain exit 0 is legitimate.
  ASSERT_TRUE(WIFEXITED(status));
  const int code = WEXITSTATUS(status);
  EXPECT_TRUE(code == 143 || code == 0) << "exit code " << code;

  // The journal survives the interruption and seeds a byte-identical
  // finish.
  ASSERT_EQ(run_and_wait(sweep_args(journal, json_out, true)), 0);
  const std::string other_journal = dir + "/ref.jsonl";
  ASSERT_EQ(run_and_wait(sweep_args(other_journal, ref_json, false)), 0);
  EXPECT_EQ(read_file(json_out), read_file(ref_json));

  for (const auto& f :
       {journal, json_out, ref_json, other_journal}) {
    std::remove(f.c_str());
  }
  ::rmdir(dir.c_str());
}

// --threads was removed. Cli ignores unknown flags, so an old command
// line must be rejected explicitly -- not run with the flag dropped --
// and the error must point to --jobs, the concurrency that remains.
TEST(CoopnetRunCli, RejectsTheRemovedThreadsFlagAndPointsToJobs) {
  char tmpl[] = "/tmp/coopnet_threads_flag_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string err = dir + "/stderr.txt";

  EXPECT_EQ(run_and_wait({COOPNET_RUN_BIN, "--algo", "BitTorrent", "--n",
                          "20", "--threads", "4"},
                         err),
            1);
  const std::string message = read_file(err);
  EXPECT_NE(message.find("--threads was removed"), std::string::npos)
      << message;
  EXPECT_NE(message.find("--jobs"), std::string::npos) << message;

  std::remove(err.c_str());
  ::rmdir(dir.c_str());
}

// The extension benches share bench::scenario_from_cli, which throws on
// a bad flag; they must report it and exit 1 rather than abort on an
// uncaught exception.
TEST(ExtBenchCli, RejectsTheRemovedThreadsFlagWithExitOne) {
  char tmpl[] = "/tmp/coopnet_ext_threads_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string err = dir + "/stderr.txt";

  EXPECT_EQ(run_and_wait({EXT_PROPSHARE_BIN, "--n", "20", "--threads", "4"},
                         err),
            1);
  const std::string message = read_file(err);
  EXPECT_NE(message.find("ext_propshare: "), std::string::npos) << message;
  EXPECT_NE(message.find("--jobs"), std::string::npos) << message;

  std::remove(err.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
