#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <memory>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace emlio::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream::TcpStream(Fd fd) : fd_(std::move(fd)) {
  if (fd_.valid()) set_nodelay(fd_.get());
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  // Resolve via getaddrinfo so hostnames ("localhost", "storage-node-3")
  // work, not just dotted IPv4 literals (literals resolve too, AI_NUMERICHOST
  // -free). Try every returned address until one connects.
  addrinfo hints{};
  hints.ai_family = AF_INET;  // listeners bind IPv4 (see TcpListener)
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  addrinfo* results = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("connect: cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)> guard(results, &::freeaddrinfo);

  int last_errno = 0;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      return TcpStream(std::move(fd));
    }
    last_errno = errno;
  }
  errno = last_errno;
  throw_errno("connect to " + host + ":" + std::to_string(port));
}

void TcpStream::send_all(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_.get(), bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t TcpStream::sendv_all(std::span<iovec> iov) {
  // sendmsg, not writev: writev has no flags argument and we need
  // MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not SIGPIPE.
  std::size_t idx = 0;
  std::size_t syscalls = 0;
  for (;;) {
    while (idx < iov.size() && iov[idx].iov_len == 0) ++idx;
    if (idx == iov.size()) return syscalls;
    msghdr msg{};
    msg.msg_iov = &iov[idx];
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - idx, IOV_MAX);
    ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    ++syscalls;  // counted even on EINTR — the audit counts kernel crossings
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg");
    }
    auto left = static_cast<std::size_t>(n);
    while (left > 0 && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (left > 0) {
      iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
}

bool TcpStream::recv_all(std::span<std::uint8_t> bytes) {
  std::size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::recv(fd_.get(), bytes.data() + got, bytes.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between messages
      throw std::runtime_error("recv: connection closed mid-message (" + std::to_string(got) +
                               "/" + std::to_string(bytes.size()) + " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpStream::shutdown_send() noexcept {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

void TcpStream::shutdown() noexcept {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpStream::reset_on_release() noexcept {
  const linger reset{1, 0};
  if (fd_.valid()) ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind to port " + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = std::move(fd);
}

std::optional<TcpStream> TcpListener::accept() {
  if (closed_.load(std::memory_order_acquire) || !fd_.valid()) return std::nullopt;
  int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0 || closed_.load(std::memory_order_acquire)) {
    // EINVAL after close()'s shutdown is the normal teardown path.
    if (fd >= 0) ::close(fd);
    return std::nullopt;
  }
  return TcpStream(Fd(fd));
}

void TcpListener::close() noexcept {
  // Only shut the socket down here — that wakes a concurrently blocked
  // accept(). The fd itself is released by the destructor, after the owner
  // has joined its accept thread: resetting it now would race the accept
  // thread's reads of the descriptor (and could close an fd number another
  // thread just reused).
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

}  // namespace emlio::net
