#ifndef STREAMHIST_PERFBENCH_NET_H_
#define STREAMHIST_PERFBENCH_NET_H_

// The benchmark's side of the wire: a child `streamhist_tool serve` process
// and a loopback client connection speaking the statement protocol
// (OK <k> + k lines | ERR <CODE> <text>) plus binary batch-APPEND frames.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// One protocol reply. `ok` false with an empty `code` means the connection
/// ended before a whole reply arrived.
struct Reply {
  bool ok = false;
  std::string code;   // ERR code token
  std::string text;   // OK payload lines joined by '\n', or the ERR message
};

/// A connected, blocking loopback client. Reads time out after 30 s so a
/// wedged server fails the run instead of hanging it.
class Conn {
 public:
  static std::unique_ptr<Conn> Dial(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes all of `bytes`; false when the peer is gone.
  bool Send(std::string_view bytes);
  /// Blocks for the next reply; false when the connection ended first.
  bool Read(Reply* reply);
  /// Send + Read.
  bool Call(std::string_view statement, Reply* reply);

 private:
  explicit Conn(int fd) : fd_(fd) {}
  bool Parse(Reply* reply);  // one complete reply off the buffer, if any
  bool Fill();  // blocks for more bytes; false when the connection ended

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// `streamhist_tool serve --listen 0 --threads 2 --wal-dir <dir>
/// --wal-policy always` as a child process with a clean environment
/// (STREAMHIST_THREADS=2 alone). The
/// child dies with the generator (PR_SET_PDEATHSIG), so a killed benchmark
/// leaves no server behind.
class Server {
 public:
  /// Spawns the server and waits (up to 30 s) for its LISTENING line.
  static std::unique_ptr<Server> Start(const std::string& tool,
                                       const std::string& wal_dir,
                                       std::string* error);
  ~Server();  // SIGKILLs and reaps a server that was not stopped
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }
  /// SIGTERM, then collects stdout to EOF and reaps the process. Returns the
  /// shutdown output (the summary lines), empty if the server had died.
  std::string Stop(int* exit_status);

 private:
  Server() = default;
  int pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // STREAMHIST_PERFBENCH_NET_H_
