#include "net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

constexpr int kReadTimeoutMs = 30000;

}  // namespace

std::unique_ptr<Conn> Conn::Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Send(std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::Parse(Reply* reply) {
  const size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) return false;
  const std::string_view head(buf_.data() + pos_, nl - pos_);
  if (head.rfind("OK ", 0) == 0) {
    const long k = std::strtol(std::string(head.substr(3)).c_str(), nullptr,
                               10);
    size_t end = nl + 1;
    for (long i = 0; i < k; ++i) {
      const size_t next = buf_.find('\n', end);
      if (next == std::string::npos) return false;  // payload not all here
      end = next + 1;
    }
    reply->ok = true;
    reply->code.clear();
    reply->text.assign(buf_, nl + 1, end > nl + 1 ? end - nl - 2 : 0);
    pos_ = end;
  } else {
    reply->ok = false;
    if (head.rfind("ERR ", 0) == 0) {
      const size_t space = head.find(' ', 4);
      reply->code = std::string(head.substr(4, space == std::string_view::npos
                                                   ? std::string_view::npos
                                                   : space - 4));
      reply->text = space == std::string_view::npos
                        ? std::string()
                        : std::string(head.substr(space + 1));
    } else {
      reply->code = "UNPARSEABLE";
      reply->text = std::string(head);
    }
    pos_ = nl + 1;
  }
  if (pos_ > (1 << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

bool Conn::Fill() {
  char chunk[16384];
  for (;;) {
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, kReadTimeoutMs);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;  // timeout: treat as a dead connection
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0 || errno != EINTR) return false;
  }
}

bool Conn::Read(Reply* reply) {
  while (!Parse(reply)) {
    if (!Fill()) {
      *reply = Reply{};
      return false;
    }
  }
  return true;
}

bool Conn::Call(std::string_view statement, Reply* reply) {
  if (!Send(statement)) {
    *reply = Reply{};
    return false;
  }
  return Read(reply);
}

std::unique_ptr<Server> Server::Start(const std::string& tool,
                                      const std::string& wal_dir,
                                      std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const char* argv[] = {tool.c_str(), "serve",        "--listen",
                          "0",          "--threads",    "2",
                          "--wal-dir",  wal_dir.c_str(), "--wal-policy",
                          "always",     nullptr};
    // A clean environment: no STREAMHIST_* knob (faults, budgets, deadlines,
    // publication staleness) from the caller's shell can change the run.
    // The DP thread pool gets 2 threads, like the event loop: with one
    // thread per CPU, a BUILD waits for whichever pool thread the host
    // delays most, and BUILD times spread far more from run to run.
    const char* envp[] = {"STREAMHIST_THREADS=2", nullptr};
    ::execve(tool.c_str(), const_cast<char* const*>(argv),
             const_cast<char* const*>(envp));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<Server> server(new Server());
  server->pid_ = pid;
  server->out_fd_ = pipe_fds[0];

  std::string out;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kReadTimeoutMs);
  for (;;) {
    const size_t at = out.find("LISTENING ");
    if (at != std::string::npos) {
      const size_t nl = out.find('\n', at);
      if (nl != std::string::npos) {
        server->port_ = static_cast<uint16_t>(
            std::atoi(out.c_str() + at + std::strlen("LISTENING ")));
        return server;
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    pollfd p{server->out_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      *error = "server did not announce a port: " + out;
      return nullptr;
    }
    char chunk[4096];
    const ssize_t n = ::read(server->out_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "server exited before listening: " + out;
      return nullptr;
    }
    out.append(chunk, static_cast<size_t>(n));
  }
}

std::string Server::Stop(int* exit_status) {
  *exit_status = -1;
  if (pid_ < 0) return {};
  ::kill(pid_, SIGTERM);
  std::string out;
  char chunk[4096];
  for (;;) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, kReadTimeoutMs) <= 0) break;
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  // Closing stdout is the last thing the server does; give it 5 s to exit,
  // then force it down.
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) ::usleep(10000);
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  *exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  return out;
}

Server::~Server() {
  if (pid_ >= 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

}  // namespace perfbench
