#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace gecos::serve {

Server::Server(Scheduler& scheduler, std::string socket_path)
    : scheduler_(scheduler), path_(std::move(socket_path)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.empty() || path_.size() >= sizeof(addr.sun_path))
    throw Error(ErrorKind::protocol,
                "socket path empty or exceeds AF_UNIX limit: " + path_);
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw Error(ErrorKind::protocol,
                std::string("socket(): ") + std::strerror(errno));
  // A daemon killed hard leaves its socket file behind; restart must not
  // require manual cleanup.
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(ErrorKind::protocol, "bind(" + path_ + "): " +
                                         std::strerror(err));
  }
  if (::listen(listen_fd_, 8) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    throw Error(ErrorKind::protocol,
                std::string("listen(): ") + std::strerror(err));
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

void Server::serve() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorKind::protocol,
                  std::string("accept(): ") + std::strerror(errno));
    }
    bool shutdown = false;
    try {
      shutdown = handle_connection(fd);
    } catch (const std::exception& e) {
      // A torn frame mid-connection; drop the client, keep the daemon.
      std::fprintf(stderr, "gecosd: dropping connection: %s\n", e.what());
    }
    ::close(fd);
    if (shutdown) return;
  }
}

bool Server::handle_connection(int fd) {
  // Handshake: first frame must be kHello carrying magic + version.
  {
    const std::vector<unsigned char> hello = read_frame(fd);
    if (hello.empty()) return false;  // connected and left
    try {
      PayloadReader r(hello);
      if (static_cast<MsgType>(r.get_u32()) != MsgType::kHello)
        throw Error(ErrorKind::protocol, "first frame must be hello");
      const std::string magic = r.get_string();
      if (magic != std::string(kServeMagic, sizeof(kServeMagic)))
        throw Error(ErrorKind::protocol, "bad protocol magic");
      const std::uint32_t version = r.get_u32();
      r.require_end();
      if (version != kServeVersion)
        throw Error(ErrorKind::version_mismatch,
                    "client speaks protocol version " +
                        std::to_string(version) + ", server speaks " +
                        std::to_string(kServeVersion));
      PayloadWriter w;
      w.put_u32(static_cast<std::uint32_t>(MsgType::kHelloOk));
      w.put_u32(kServeVersion);
      write_frame(fd, w.bytes());
    } catch (const Error& e) {
      write_frame(fd, encode_error_frame(e.kind(), e.message()));
      return false;
    }
  }
  // Request loop to EOF or shutdown.
  for (;;) {
    const std::vector<unsigned char> payload = read_frame(fd);
    if (payload.empty()) return false;  // clean close
    bool shutdown = false;
    const std::vector<unsigned char> reply =
        handle_request(payload, shutdown);
    write_frame(fd, reply);
    if (shutdown) {
      // Drain until the client closes so its final read never races the
      // server's close().
      while (!read_frame(fd).empty()) {
      }
      return true;
    }
  }
}

std::vector<unsigned char> Server::handle_request(
    std::span<const unsigned char> payload, bool& shutdown) {
  try {
    PayloadReader r(payload);
    const MsgType type = static_cast<MsgType>(r.get_u32());
    PayloadWriter w;
    switch (type) {
      case MsgType::kSubmit: {
        const JobSpec spec = decode_job_spec(r);
        r.require_end();
        const std::uint64_t id = scheduler_.submit(spec);
        w.put_u32(static_cast<std::uint32_t>(MsgType::kSubmitOk));
        w.put_u64(id);
        break;
      }
      case MsgType::kStatus: {
        const std::uint64_t id = r.get_u64();
        r.require_end();
        w.put_u32(static_cast<std::uint32_t>(MsgType::kStatusOk));
        encode_job_status(w, scheduler_.status(id));
        break;
      }
      case MsgType::kCancel: {
        const std::uint64_t id = r.get_u64();
        r.require_end();
        const bool accepted = scheduler_.cancel(id);
        w.put_u32(static_cast<std::uint32_t>(MsgType::kCancelOk));
        w.put_u32(accepted ? 1 : 0);
        break;
      }
      case MsgType::kFetch: {
        const std::uint64_t id = r.get_u64();
        r.require_end();
        const JobResult res = scheduler_.fetch(id);
        w.put_u32(static_cast<std::uint32_t>(MsgType::kFetchOk));
        encode_job_result(w, res);
        break;
      }
      case MsgType::kStats: {
        r.require_end();
        w.put_u32(static_cast<std::uint32_t>(MsgType::kStatsOk));
        encode_server_stats(w, scheduler_.stats());
        break;
      }
      case MsgType::kShutdown: {
        r.require_end();
        shutdown = true;
        w.put_u32(static_cast<std::uint32_t>(MsgType::kShutdownOk));
        break;
      }
      default:
        throw Error(ErrorKind::protocol,
                    "unexpected message type " +
                        std::to_string(static_cast<std::uint32_t>(type)));
    }
    return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
  } catch (const Error& e) {
    return encode_error_frame(e.kind(), e.message());
  } catch (const std::invalid_argument& e) {
    return encode_error_frame(ErrorKind::protocol, e.what());
  } catch (const std::exception& e) {
    return encode_error_frame(ErrorKind::breakdown, e.what());
  }
}

}  // namespace gecos::serve
